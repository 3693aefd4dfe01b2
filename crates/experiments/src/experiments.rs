//! One function per table/figure of the paper's evaluation (§5).
//!
//! Conventions:
//!
//! * "model" columns come from `memlat-model` (Theorem 1 and friends);
//! * "sim" columns come from `memlat-cluster` (the discrete-event
//!   testbed substitute);
//! * latencies are reported in µs unless the column name says otherwise;
//! * every function is deterministic given the ambient profile
//!   (seeds are fixed constants).

use memlat_cluster::{assembly::assemble_requests, ClusterSim, Retention, SimConfig, SimScratch};
use memlat_model::{
    cliff, database, ArrivalPattern, LoadDistribution, ModelParams, ServerLatencyModel,
};
use memlat_workload::facebook;
use rand::SeedableRng;

use crate::{parallel_sweep, quick_mode, request_count, sim_duration, ExpResult};

/// The paper's §5.1 base configuration.
#[must_use]
pub fn base_params() -> ModelParams {
    ModelParams::builder()
        .build()
        .expect("paper defaults are valid")
}

fn with_key_rate(lam: f64) -> ModelParams {
    ModelParams::builder()
        .key_rate_per_server(lam)
        .build()
        .expect("valid sweep point")
}

/// Measured `E[T_S(N)]` (µs) for a parameter set via the simulator's
/// pooled-quantile estimator.
///
/// Sweeps only need the pooled quantile, so the run keeps streaming
/// summaries instead of per-key buffers ([`Retention::Summary`]): memory
/// stays flat however long the simulated duration. The caller's
/// [`SimScratch`] is reused across its sweep points.
fn ts_sim_us(params: &ModelParams, n: u64, seed: u64, scratch: &mut SimScratch) -> f64 {
    let cfg = SimConfig::new(params.clone())
        .duration(sim_duration())
        .warmup(0.2)
        .seed(seed)
        .retention(Retention::Summary);
    let out = ClusterSim::run_with(&cfg, scratch).expect("stable sweep point");
    out.expected_server_latency(n) * 1e6
}

/// Model `E[T_S(N)]` (µs): product-form upper estimate (the curve the
/// paper plots), plus bounds.
fn ts_model_us(params: &ModelParams, n: u64) -> (f64, f64) {
    let m = ServerLatencyModel::new(params).expect("stable sweep point");
    let b = m.product_form_bounds(n);
    (b.lower * 1e6, b.upper * 1e6)
}

/// Table 3 — basic validation under the Facebook workload.
///
/// Rows: `T_N(N)`, `T_S(N)`, `T_D(N)`, `T(N)`; columns give the paper's
/// Theorem-1 band and measurement next to ours.
#[must_use]
pub fn table3() -> ExpResult {
    let params = base_params();
    let est = params.estimate().expect("base config is stable");

    let cfg = SimConfig::new(params.clone())
        .duration(sim_duration())
        .warmup(0.2)
        .seed(0x7ab1e3);
    let out = ClusterSim::run(&cfg).expect("base config simulates");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7ab1e3);
    let stats = assemble_requests(&out, params.keys_per_request(), request_count(), &mut rng);

    let mut r = ExpResult::new(
        "table3",
        "Table 3 — basic validation (Facebook workload, N=150)",
        &[
            "row",
            "paper_model_lo_us",
            "paper_model_hi_us",
            "paper_meas_us",
            "model_lo_us",
            "model_hi_us",
            "sim_us",
            "sim_ci_lo_us",
            "sim_ci_hi_us",
        ],
    );
    // Paper's Table 3 values.
    let paper = [
        (20.0, 20.0, 20.0),
        (351.0, 366.0, 368.0),
        (836.0, 836.0, 867.0),
        (836.0, 1222.0, 1144.0),
    ];
    let model = [
        (est.network * 1e6, est.network * 1e6),
        (est.server.lower * 1e6, est.server.upper * 1e6),
        (est.database * 1e6, est.database_exact * 1e6),
        (est.total.lower * 1e6, est.total.upper * 1e6),
    ];
    let sim = [
        (
            stats.network * 1e6,
            stats.network * 1e6,
            stats.network * 1e6,
        ),
        (
            stats.ts.mean * 1e6,
            stats.ts.lower * 1e6,
            stats.ts.upper * 1e6,
        ),
        (
            stats.td.mean * 1e6,
            stats.td.lower * 1e6,
            stats.td.upper * 1e6,
        ),
        (
            stats.total.mean * 1e6,
            stats.total.lower * 1e6,
            stats.total.upper * 1e6,
        ),
    ];
    for i in 0..4 {
        r.push_row(vec![
            i as f64, paper[i].0, paper[i].1, paper[i].2, model[i].0, model[i].1, sim[i].0,
            sim[i].1, sim[i].2,
        ]);
    }
    r.note("rows: 0=T_N(N) 1=T_S(N) 2=T_D(N) 3=T(N)");
    r.note(
        "model T_D row shows eq.23 (lo) and the within-model exact binomial×harmonic value (hi); \
         eq.23 underestimates by ~23% at this point — the simulation tracks the exact value",
    );
    if let Ok(law) = memlat_model::RequestLatencyLaw::new(&params) {
        r.note(format!(
            "exact-in-model E[T(N)] = {:.1} µs (closed-form law; exceeds the eq.23-based \
             Theorem-1 upper bound — see EXPERIMENTS.md), p99 = {:.1} µs, p999 = {:.1} µs",
            law.mean() * 1e6,
            law.quantile(0.99) * 1e6,
            law.quantile(0.999) * 1e6,
        ));
    }
    r
}

/// Fig. 4 — per-key processing-latency quantiles vs the eq. (9) band.
#[must_use]
pub fn fig04() -> ExpResult {
    let params = base_params();
    let model = ServerLatencyModel::new(&params).expect("stable");
    let cfg = SimConfig::new(params)
        .duration(sim_duration())
        .warmup(0.2)
        .seed(0xf14)
        .retention(Retention::Summary);
    let out = ClusterSim::run(&cfg).expect("stable");
    let sketch = out.pooled_latency_sketch();

    let mut r = ExpResult::new(
        "fig04",
        "Fig. 4 — k-th quantile of per-key latency T_S vs eq. (9) bounds",
        &["k", "eq9_lower_us", "eq9_upper_us", "sim_us"],
    );
    for i in 1..20 {
        let k = i as f64 / 20.0;
        let (lo, hi) = model.single_key_quantile_bounds(k);
        r.push_row(vec![k, lo * 1e6, hi * 1e6, sketch.quantile(k) * 1e6]);
    }
    for k in [0.97, 0.99] {
        let (lo, hi) = model.single_key_quantile_bounds(k);
        r.push_row(vec![k, lo * 1e6, hi * 1e6, sketch.quantile(k) * 1e6]);
    }
    r.note("paper Fig. 4: measured quantiles tightly sandwiched by the eq. (9) band up to ~300 µs");
    r
}

/// Fig. 5 — `E[T_S(N)]` vs concurrency probability `q ∈ [0, 0.5]`.
#[must_use]
pub fn fig05() -> ExpResult {
    let qs: Vec<f64> = vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let rows = parallel_sweep(qs, |scratch, q| {
        let params = ModelParams::builder()
            .concurrency(q)
            .build()
            .expect("valid q");
        let (lo, hi) = ts_model_us(&params, 150);
        let sim = ts_sim_us(&params, 150, 0xf15 + (q * 100.0) as u64, scratch);
        vec![q, lo, hi, sim]
    });
    let mut r = ExpResult::new(
        "fig05",
        "Fig. 5 — E[T_S(N)] vs concurrent probability q (N=150)",
        &["q", "model_lo_us", "model_hi_us", "sim_us"],
    );
    for row in rows {
        r.push_row(row);
    }
    r.note("paper Fig. 5: ~350 µs at q=0.1 rising to ~650 µs at q=0.5; growth ∝ 1/(1−q)");
    r
}

/// Fig. 6 — `E[T_S(N)]` vs burst degree `ξ ∈ [0, 0.6]`.
#[must_use]
pub fn fig06() -> ExpResult {
    let xis: Vec<f64> = vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
    let rows = parallel_sweep(xis, |scratch, xi| {
        let params = ModelParams::builder()
            .arrival(ArrivalPattern::GeneralizedPareto { xi })
            .build()
            .expect("valid xi");
        let (lo, hi) = ts_model_us(&params, 150);
        let sim = ts_sim_us(&params, 150, 0xf16 + (xi * 100.0) as u64, scratch);
        vec![xi, lo, hi, sim]
    });
    let mut r = ExpResult::new(
        "fig06",
        "Fig. 6 — E[T_S(N)] vs burst degree ξ (N=150)",
        &["xi", "model_lo_us", "model_hi_us", "sim_us"],
    );
    for row in rows {
        r.push_row(row);
    }
    r.note("paper Fig. 6: latency grows steeply with ξ, exceeding 1 ms by ξ=0.6");
    r
}

/// Fig. 7 — `E[T_S(N)]` vs per-server arrival rate `λ ∈ [10, 75] Kps`.
#[must_use]
pub fn fig07() -> ExpResult {
    let lams: Vec<f64> = vec![10e3, 20e3, 30e3, 40e3, 50e3, 55e3, 60e3, 65e3, 70e3, 75e3];
    let rows = parallel_sweep(lams, |scratch, lam| {
        let params = with_key_rate(lam);
        let (lo, hi) = ts_model_us(&params, 150);
        let sim = ts_sim_us(&params, 150, 0xf17 + (lam / 1e3) as u64, scratch);
        vec![lam / 1e3, lo, hi, sim]
    });
    let mut r = ExpResult::new(
        "fig07",
        "Fig. 7 — E[T_S(N)] vs arrival rate λ (µ_S=80 Kps, ξ=0.15, N=150)",
        &["lambda_kps", "model_lo_us", "model_hi_us", "sim_us"],
    );
    for row in rows {
        r.push_row(row);
    }
    r.note("paper Fig. 7: gentle growth below 50 Kps, sharp cliff past ~60 Kps (ρ_S ≈ 75%)");
    r
}

/// Fig. 8 — model-only: `E[T_S(N)]` vs λ for ξ ∈ {0, 0.6, 0.8}.
#[must_use]
pub fn fig08() -> ExpResult {
    let mut r = ExpResult::new(
        "fig08",
        "Fig. 8 — model E[T_S(N)] vs λ for ξ ∈ {0, 0.6, 0.8} (µ_S=80 Kps)",
        &["lambda_kps", "ts_xi00_us", "ts_xi06_us", "ts_xi08_us"],
    );
    let mut lam = 10e3;
    while lam <= 75e3 + 1.0 {
        let mut row = vec![lam / 1e3];
        for xi in [0.0, 0.6, 0.8] {
            let params = ModelParams::builder()
                .arrival(ArrivalPattern::GeneralizedPareto { xi })
                .key_rate_per_server(lam)
                .build()
                .expect("valid");
            row.push(ts_model_us(&params, 150).1);
        }
        r.push_row(row);
        lam += 5e3;
    }
    r.note("paper Fig. 8: cliffs at ≈65/45/30 Kps for ξ=0/0.6/0.8 (ρ_S ≈ 80/55/40%)");
    r
}

/// Fig. 9 — model-only: `E[T_S(N)]` vs `µ_S` for ξ ∈ {0, 0.6, 0.8}.
#[must_use]
pub fn fig09() -> ExpResult {
    let mut r = ExpResult::new(
        "fig09",
        "Fig. 9 — model E[T_S(N)] vs µ_S for ξ ∈ {0, 0.6, 0.8} (λ=62.5 Kps)",
        &["mu_kps", "ts_xi00_us", "ts_xi06_us", "ts_xi08_us"],
    );
    let mut mu = 65e3;
    while mu <= 200e3 + 1.0 {
        let mut row = vec![mu / 1e3];
        for xi in [0.0, 0.6, 0.8] {
            let params = ModelParams::builder()
                .arrival(ArrivalPattern::GeneralizedPareto { xi })
                .service_rate(mu)
                .build()
                .expect("valid");
            row.push(ts_model_us(&params, 150).1);
        }
        r.push_row(row);
        mu += 7.5e3;
    }
    r.note("paper Fig. 9: cliffs delayed to µ_S ≈ 85/110/160 Kps for ξ=0/0.6/0.8");
    r
}

/// Table 4 — cliff utilization `ρ_S(ξ)` (Proposition 2).
#[must_use]
pub fn table4() -> ExpResult {
    let mut r = ExpResult::new(
        "table4",
        "Table 4 — cliff utilization ρ_S(ξ) (fixed-δ* criterion, δ*=0.80)",
        &["xi", "paper_rho", "model_rho", "abs_err"],
    );
    let mut sse = 0.0;
    for &(xi, paper) in cliff::TABLE4_PAPER.iter() {
        let mine = cliff::cliff_utilization(xi, facebook::CONCURRENCY_Q).expect("solvable");
        let err = (mine - paper).abs();
        sse += err * err;
        r.push_row(vec![xi, paper, mine, err]);
    }
    r.note(format!(
        "rmse = {:.4} utilization points; the paper never states its cliff criterion — \
         ours is δ(ρ,ξ) = δ* with δ* = {} least-squares calibrated (see DESIGN.md)",
        (sse / 20.0f64).sqrt(),
        cliff::DELTA_STAR
    ));
    r
}

/// Fig. 10 — `E[T_S(N)]` vs largest load ratio `p1 ∈ [0.3, 0.9]`.
#[must_use]
pub fn fig10() -> ExpResult {
    let p1s: Vec<f64> = vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9];
    let rows = parallel_sweep(p1s, |scratch, p1| {
        let params = ModelParams::builder()
            .load(LoadDistribution::HotServer { p1 })
            .total_key_rate(80_000.0)
            .build()
            .expect("valid p1");
        let model = ServerLatencyModel::new(&params).expect("stable (p1<1)");
        let wide = model.theorem1_bounds(150);
        let tight = model.product_form_bounds(150);
        let sim = ts_sim_us(&params, 150, 0xf1a + (p1 * 100.0) as u64, scratch);
        vec![
            p1,
            wide.lower * 1e6,
            wide.upper * 1e6,
            tight.upper * 1e6,
            sim,
        ]
    });
    let mut r = ExpResult::new(
        "fig10",
        "Fig. 10 — E[T_S(N)] vs largest load ratio p1 (Λ=80 Kps, µ_S=80 Kps)",
        &["p1", "thm1_lo_us", "thm1_hi_us", "product_us", "sim_us"],
    );
    for row in rows {
        r.push_row(row);
    }
    r.note("paper Fig. 10: cliff at p1 = 0.75 (hot server at 60 Kps / 75% utilization)");
    r.note("product_us is this reproduction's tighter product-form estimate (extension)");
    r
}

/// Fig. 11 — `E[T_D(N)]` vs miss ratio for small and large `N`.
#[must_use]
pub fn fig11() -> ExpResult {
    let ns: [u64; 6] = [1, 4, 10, 100, 1_000, 10_000];
    let rs = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1];
    let requests = if quick_mode() { 20_000 } else { 200_000 };
    let mut r = ExpResult::new(
        "fig11",
        "Fig. 11 — E[T_D(N)] (ms) vs cache miss ratio r (1/µ_D = 1 ms)",
        &[
            "r",
            "n1_model_ms",
            "n1_sim_ms",
            "n4_model_ms",
            "n4_sim_ms",
            "n10_model_ms",
            "n10_sim_ms",
            "n100_model_ms",
            "n100_sim_ms",
            "n1000_model_ms",
            "n1000_sim_ms",
            "n10000_model_ms",
            "n10000_sim_ms",
        ],
    );
    let rows = parallel_sweep(rs.to_vec(), |_, miss| {
        let mut row = vec![miss];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf1b ^ (miss * 1e6) as u64);
        for n in ns {
            let model = database::db_latency_mean(n, miss, facebook::DB_SERVICE_RATE);
            let sim = memlat_cluster::database::db_only_experiment(
                n,
                miss,
                facebook::DB_SERVICE_RATE,
                0.01,
                requests,
                &mut rng,
            );
            row.push(model * 1e3);
            row.push(sim.mean_td * 1e3);
        }
        row
    });
    for row in rows {
        r.push_row(row);
    }
    r.note("paper Fig. 11: Θ(r) growth for small N (left panel), Θ(log r) for large N (right)");
    r.note(
        "sim exceeds eq. 23 systematically for moderate N·r — the ln(K+1) bias (EXPERIMENTS.md)",
    );
    r
}

/// Fig. 12 — `E[T_S(N)]` vs number of keys `N ∈ [1, 10⁴]`.
#[must_use]
pub fn fig12() -> ExpResult {
    let params = base_params();
    let model = ServerLatencyModel::new(&params).expect("stable");
    // One long simulation pooled across all N (the quantile estimator
    // reuses the same per-key population, exactly like the paper's
    // measurement methodology).
    // N = 10⁴ needs the 0.9999-quantile: bursty (GPD) arrivals correlate
    // tail samples, so the run must be long for the estimate to settle.
    let dur = if quick_mode() { 1.0 } else { 20.0 };
    // The long run is exactly where per-key buffers hurt: Summary
    // retention answers every quantile from the constant-size sketch.
    let cfg = SimConfig::new(params)
        .duration(dur)
        .warmup(0.2)
        .seed(0xf1c)
        .retention(Retention::Summary);
    let out = ClusterSim::run(&cfg).expect("stable");
    let sketch = out.pooled_latency_sketch();

    let ns: &[u64] = if quick_mode() {
        &[1, 10, 100, 1_000]
    } else {
        &[1, 3, 10, 30, 100, 300, 1_000, 3_000, 10_000]
    };
    let mut r = ExpResult::new(
        "fig12",
        "Fig. 12 — E[T_S(N)] vs number of keys N (Θ(log N) growth)",
        &["n", "model_lo_us", "model_hi_us", "sim_us"],
    );
    for &n in ns {
        let b = model.product_form_bounds(n);
        let k = memlat_stats::max_order_quantile(n);
        r.push_row(vec![
            n as f64,
            b.lower * 1e6,
            b.upper * 1e6,
            sketch.quantile(k) * 1e6,
        ]);
    }
    r.note("paper Fig. 12: logarithmic growth, ~150 µs at N=1 to ~600 µs at N=10⁴");
    r.note("the N=10⁴ sim point estimates an extreme (0.9999) quantile under bursty arrivals; expect a few % of upward noise");
    r
}

/// Fig. 13 — `E[T_D(N)]` vs number of keys `N ∈ [1, 10⁶]`.
#[must_use]
pub fn fig13() -> ExpResult {
    let ns: &[u64] = if quick_mode() {
        &[1, 100, 10_000, 1_000_000]
    } else {
        &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000]
    };
    let requests = if quick_mode() { 2_000 } else { 20_000 };
    let mut r = ExpResult::new(
        "fig13",
        "Fig. 13 — E[T_D(N)] (ms) vs number of keys N (r=0.01, Θ(log N) growth)",
        &["n", "model_ms", "model_exact_ms", "sim_ms"],
    );
    let rows = parallel_sweep(ns.to_vec(), |_, n| {
        let model = database::db_latency_mean(n, 0.01, facebook::DB_SERVICE_RATE);
        let exact = database::db_latency_mean_exact(n, 0.01, facebook::DB_SERVICE_RATE);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf1d ^ n);
        let sim = memlat_cluster::database::db_only_experiment(
            n,
            0.01,
            facebook::DB_SERVICE_RATE,
            0.01,
            requests,
            &mut rng,
        );
        vec![n as f64, model * 1e3, exact * 1e3, sim.mean_td * 1e3]
    });
    for row in rows {
        r.push_row(row);
    }
    r.note("paper Fig. 13: ~0 at N=1 rising logarithmically to ~10 ms at N=10⁶");
    r
}

/// Every experiment: the paper's figures in order, then the
/// fault-tolerance extension sweep.
#[must_use]
pub fn all() -> Vec<ExpResult> {
    vec![
        table3(),
        fig04(),
        fig05(),
        fig06(),
        fig07(),
        fig08(),
        fig09(),
        table4(),
        fig10(),
        fig11(),
        fig12(),
        fig13(),
        crate::fault::fault_sweep(),
        crate::delayed_hits::delayed_hits(),
        crate::emergent_r::emergent_r(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test suite always uses the quick profile.
    fn quick() {
        std::env::set_var("MEMLAT_QUICK", "1");
    }

    #[test]
    fn table3_columns_consistent() {
        quick();
        let t = table3();
        assert_eq!(t.rows.len(), 4);
        // Model T_S row brackets the paper's band loosely.
        let lo = t.rows[1][4];
        let hi = t.rows[1][5];
        assert!(lo > 300.0 && hi < 450.0, "({lo}, {hi})");
        // Sim T_S mean within 25% of the paper's 368 µs.
        assert!(
            (t.rows[1][6] / 368.0 - 1.0).abs() < 0.25,
            "{}",
            t.rows[1][6]
        );
    }

    #[test]
    fn fig07_shows_the_cliff() {
        quick();
        let f = fig07();
        let model = f.column("model_hi_us").unwrap();
        let sim = f.column("sim_us").unwrap();
        // Latency at 75 Kps is many times the 10 Kps value, and the jump
        // from 60→75 exceeds the whole 10→50 rise: a cliff.
        assert!(model.last().unwrap() / model[0] > 5.0);
        assert!(sim.last().unwrap() / sim[0] > 4.0);
        let rise_low = model[4] - model[0]; // 10→50 Kps
        let rise_high = model[9] - model[7]; // 65→75 Kps
        assert!(rise_high > rise_low, "{rise_high} vs {rise_low}");
    }

    #[test]
    fn fig08_burstier_cliffs_earlier() {
        quick();
        let f = fig08();
        let xi0 = f.column("ts_xi00_us").unwrap();
        let xi8 = f.column("ts_xi08_us").unwrap();
        // At every λ, burstier arrivals mean higher latency.
        for (a, b) in xi0.iter().zip(&xi8) {
            assert!(b > a);
        }
        // ξ=0.8 has already exploded at 40 Kps (4× its 10 Kps value);
        // ξ=0 has not.
        let idx40 = 6; // 10 + 5*6 = 40 Kps
        assert!(xi8[idx40] / xi8[0] > 4.0, "{} {}", xi8[idx40], xi8[0]);
        assert!(xi0[idx40] / xi0[0] < 2.5);
    }

    #[test]
    fn fig11_regimes() {
        quick();
        let f = fig11();
        let r_col = f.column("r").unwrap();
        let n4 = f.column("n4_model_ms").unwrap();
        let n10k = f.column("n10000_model_ms").unwrap();
        // Small N: 10× the miss ratio ⇒ ~10× the latency (Θ(r)).
        let ratio_small = n4[2] / n4[0]; // r=1e-3 vs 1e-4
        assert!(ratio_small > 7.0 && ratio_small < 11.0, "{ratio_small}");
        // Large N, once N·r ≫ 1: 10× the miss ratio moves latency by a
        // ~constant step (Θ(log r)), far below 10×.
        let ratio_large = n10k[4] / n10k[2]; // r=1e-2 vs 1e-3
        assert!(ratio_large < 3.0, "{ratio_large}");
        assert_eq!(r_col.len(), 7);
    }

    #[test]
    fn fig13_logarithmic() {
        quick();
        let f = fig13();
        let model = f.column("model_ms").unwrap();
        let sim = f.column("sim_ms").unwrap();
        // Equal decade steps of N (quick: 1→100→10⁴→10⁶) add roughly
        // equal latency once N·r ≫ 1.
        let d1 = model[2] - model[1];
        let d2 = model[3] - model[2];
        assert!((d2 / d1 - 1.0).abs() < 0.3, "{d1} {d2}");
        // Sim tracks the exact column better than eq. 23 at mid N.
        let exact = f.column("model_exact_ms").unwrap();
        for i in 1..sim.len() {
            assert!(
                (sim[i] / exact[i] - 1.0).abs() < 0.25,
                "i={i}: {} vs {}",
                sim[i],
                exact[i]
            );
        }
    }

    #[test]
    fn table4_close_to_paper() {
        let t = table4();
        let err = t.column("abs_err").unwrap();
        assert!(err.iter().all(|&e| e < 0.09), "{err:?}");
    }
}
