//! Emergent-miss-ratio sweep: the Table 3 latency pipeline re-run with
//! `r` as an *output* of consistent-hash routing + LRU servers instead
//! of the paper's exogenous 1% constant.
//!
//! Each regime runs in two phases on fixed seeds:
//!
//! 1. **Emerge** — a routed, cache-backed cluster (128-vnode ring, one
//!    slab/LRU store per server, Zipf keyspace of 1 M) is simulated on a
//!    rate-compressed clock until the fleet warms, and its miss ratio
//!    *emerges* from memory budget × skew. The Ji/Quan/Tan asymptotic
//!    (arXiv 1801.02436) and the finite-size Che solution are evaluated
//!    at the measured occupancy for reference — the conformance harness
//!    gates these, the sweep reports them.
//! 2. **Propagate** — the paper's own Table 3 machinery (default
//!    parameters, `N = 150` fan-out, request assembly) is re-run with
//!    the emergent `r` in place of the constant, giving the simulated
//!    `E[T_S(N)]`/`E[T_D(N)]`/`E[T(N)]` the fleet would actually see.
//!    Columns compare the constant-`r` closed form (eq. 23 at 1%)
//!    against both the emergent-`r` closed form and the emergent-`r`
//!    simulation: where they split is where the paper's constant-`r`
//!    assumption breaks.

use memlat_cluster::{
    run_replications, CacheBackedConfig, CacheRouting, ClusterSim, MissMode, Retention, SimConfig,
    SimScratch,
};
use memlat_model::asymptotics::{che_miss_ratio, lru_miss_ratio_asymptotic};
use memlat_model::ModelParams;

use crate::ExpResult;
use crate::{parallel_sweep, quick_mode, request_count, sim_duration};

const SEED: u64 = 0xE44E;
/// Zipf key-space of the routed fleet.
const KEYSPACE: u64 = 1_000_000;
/// Virtual nodes per server on the ring.
const VNODES: usize = 128;
const MEAN_VALUE_BYTES: f64 = 1_000.0;

/// One sweep regime: per-server memory budget × popularity skew.
struct Regime {
    mem_mib: usize,
    skew: f64,
}

/// Phase 1: emerge the miss ratio on a rate-compressed clock (key and
/// service rates scaled together leave `r` untouched but let the LRU
/// warm through its fill phase; 4× service headroom keeps the ring's
/// hottest server — which owns the Zipf head — stationary).
fn emerge(r: &Regime, seed: u64, scratch: &mut SimScratch) -> (u64, f64) {
    let params = ModelParams::builder()
        .key_rate_per_server(200_000.0)
        .service_rate(800_000.0)
        .db_service_rate(50_000.0)
        .build()
        .expect("valid emerge-phase params");
    let (warmup, duration) = if quick_mode() {
        (0.6, 0.3)
    } else {
        (1.5, 0.75)
    };
    let cfg = SimConfig::new(params)
        .duration(duration)
        .warmup(warmup)
        .seed(seed)
        .db_shards(64)
        .retention(Retention::Summary)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: r.mem_mib << 20,
            keyspace: KEYSPACE,
            skew: r.skew,
            mean_value_bytes: MEAN_VALUE_BYTES,
            routing: CacheRouting::ConsistentHash { vnodes: VNODES },
        }));
    let out = ClusterSim::run_with(&cfg, scratch).expect("emerge-phase run");
    (out.cached_items(), out.miss_ratio())
}

/// Emergent-r sweep — memory budget × skew, each regime's emergent miss
/// ratio propagated through the paper's Table 3 pipeline.
#[must_use]
pub fn emergent_r() -> ExpResult {
    let regimes: Vec<Regime> = {
        let mut v = Vec::new();
        for &skew in &[1.3, 1.4, 1.5] {
            for &mem_mib in &[4usize, 8, 16] {
                v.push(Regime { mem_mib, skew });
            }
        }
        v
    };

    let rows = parallel_sweep(regimes, |scratch, r| {
        let seed = SEED ^ ((r.mem_mib as u64) << 8) ^ (r.skew * 100.0) as u64;
        let (cached_items, emergent) = emerge(&r, seed, scratch);
        let x = cached_items as f64;
        let jqt = lru_miss_ratio_asymptotic(KEYSPACE, r.skew, x).expect("skew > 1");
        let che = che_miss_ratio(KEYSPACE, r.skew, x).expect("valid Che point");

        // Phase 2: the paper's operating point with the emergent r.
        let base = ModelParams::builder().build().expect("paper defaults");
        let n = base.keys_per_request();
        let with_r = base
            .with_miss_ratio(emergent)
            .expect("emergent r is a valid ratio");
        let td_const = base.estimate().expect("paper estimate").database;
        let td_emergent = with_r.estimate().expect("emergent estimate").database;
        let reps = if quick_mode() { 2 } else { 4 };
        let cfg = SimConfig::new(with_r)
            .duration(sim_duration().min(1.5))
            .warmup(0.1)
            .seed(seed ^ 0xF00D);
        let stats = run_replications(&cfg, n, reps, request_count()).expect("propagate-phase run");

        vec![
            r.mem_mib as f64,
            r.skew,
            cached_items as f64,
            emergent * 100.0,
            jqt * 100.0,
            che * 100.0,
            stats.ts.mean * 1e6,
            stats.td.mean * 1e6,
            stats.total.mean * 1e6,
            td_const * 1e6,
            td_emergent * 1e6,
            100.0 * (td_const / stats.td.mean - 1.0),
            100.0 * (td_emergent / stats.td.mean - 1.0),
        ]
    });

    let mut r = ExpResult::new(
        "emergent_r",
        "Emergent miss ratio — consistent-hash + LRU fleet, propagated through Table 3",
        &[
            "mem_mib",
            "skew",
            "cached_items",
            "emergent_r_pct",
            "jqt_r_pct",
            "che_r_pct",
            "ts_sim_us",
            "td_sim_us",
            "total_sim_us",
            "td_const_us",
            "td_emergent_us",
            "const_td_err_pct",
            "emergent_td_err_pct",
        ],
    );
    for row in rows {
        r.push_row(row);
    }
    r.note(format!(
        "phase 1: 4-server ring ({VNODES} vnodes/server), Zipf keyspace {KEYSPACE}, \
         per-server slab/LRU of mem_mib; r emerges and is read off with the fleet \
         occupancy (cached_items = the x both predictions use)"
    ));
    r.note(
        "jqt_r = Ji/Quan/Tan asymptotic (c/α)·Γ(1−1/α)^α·x^{−(α−1)}; che_r = \
         finite-size Che reference; the conformance harness gates these, the sweep \
         maps them",
    );
    r.note(
        "phase 2: the paper's Table 3 point re-simulated with miss_ratio = emergent r; \
         td_const is eq. 23 at the paper's constant 1% — const_td_err_pct is how far \
         the constant-r prediction sits from the emergent-r fleet's simulated E[T_D(N)], \
         emergent_td_err_pct how far eq. 23 sits once fed the emergent r",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() {
        std::env::set_var("MEMLAT_QUICK", "1");
    }

    #[test]
    fn emergent_r_story_holds() {
        quick();
        let f = emergent_r();
        assert_eq!(f.rows.len(), 9, "3 skews × 3 memory budgets");
        let mem = f.column("mem_mib").unwrap();
        let skew = f.column("skew").unwrap();
        let cached = f.column("cached_items").unwrap();
        let r_pct = f.column("emergent_r_pct").unwrap();
        let jqt = f.column("jqt_r_pct").unwrap();
        let che = f.column("che_r_pct").unwrap();
        let td_sim = f.column("td_sim_us").unwrap();
        let const_err = f.column("const_td_err_pct").unwrap();
        let emergent_err = f.column("emergent_td_err_pct").unwrap();
        for i in 0..f.rows.len() {
            assert!(cached[i] > 1_000.0, "row {i}: cold cache");
            assert!(r_pct[i] > 0.0 && r_pct[i] < 50.0, "row {i}: {}", r_pct[i]);
            assert!(td_sim[i] > 0.0);
            // The asymptotic tracks the emergent ratio to within its
            // documented finite-size bias envelope.
            assert!(
                (r_pct[i] / jqt[i] - 1.0).abs() < 0.5,
                "row {i}: emergent {} vs jqt {}",
                r_pct[i],
                jqt[i]
            );
            assert!(
                (r_pct[i] / che[i] - 1.0).abs() < 0.25,
                "row {i}: emergent {} vs che {}",
                r_pct[i],
                che[i]
            );
            // Where the emergent ratio leaves the paper's 1% materially,
            // feeding eq. 23 the emergent r must beat the constant.
            if (r_pct[i] / 1.0 - 1.0).abs() > 0.5 {
                assert!(
                    emergent_err[i].abs() < const_err[i].abs(),
                    "row {i}: emergent-r closed form ({}%) no better than \
                     constant-r ({}%) at r = {}%",
                    emergent_err[i],
                    const_err[i],
                    r_pct[i]
                );
            }
        }
        // More memory ⇒ fewer misses, within each skew.
        for i in 0..f.rows.len() {
            for j in 0..f.rows.len() {
                if skew[i] == skew[j] && mem[i] < mem[j] {
                    assert!(
                        r_pct[j] < r_pct[i],
                        "mem {} did not miss less than {} at skew {}",
                        mem[j],
                        mem[i],
                        skew[i]
                    );
                    assert!(cached[j] > cached[i]);
                }
            }
        }
    }
}
