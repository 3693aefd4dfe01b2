//! Fault-tolerance experiment: fault intensity vs tail latency.
//!
//! The paper models a healthy memcached deployment; this extension
//! sweeps what its latency picture looks like when one server degrades
//! or dies, and what the standard client defenses (bounded retries,
//! hedged requests — "The Tail at Scale") buy back.
//!
//! One row per fault intensity level; three scenarios per row, all on
//! the same seeds so columns are pathwise comparable:
//!
//! * **degraded** — server 0 slowed by `factor` over the whole measured
//!   window, passive client: the pooled p99 strictly grows with the
//!   factor (same draws, scaled service).
//! * **hedged** — same fault, plus hedged duplicates to the replica
//!   after a healthy-p95 delay: the p99 collapses back toward the
//!   healthy tail (a pathwise min can only help).
//! * **outage** — server 0 crashed for a window that grows with the
//!   intensity, clients retry with exponential backoff: refusals,
//!   retries, and keys forced through to the database scale with the
//!   downtime.

use memlat_cluster::{ClientPolicy, ClusterSim, FaultPlan, Retention, RetryPolicy, SimConfig};

use crate::{parallel_sweep, sim_duration, ExpResult};

use super::experiments::base_params;

const SEED: u64 = 0xfa5e;
const WARMUP: f64 = 0.2;

fn cfg() -> SimConfig {
    SimConfig::new(base_params())
        .duration(sim_duration())
        .warmup(WARMUP)
        .seed(SEED)
        .retention(Retention::Summary)
}

/// Fault sweep — slowdown factor and outage length vs tail latency and
/// resilience counters.
#[must_use]
pub fn fault_sweep() -> ExpResult {
    let duration = sim_duration();
    let horizon = WARMUP + duration;
    // The hedge triggers at the healthy run's p95 — the classic choice.
    let healthy = ClusterSim::run(&cfg()).expect("healthy base run");
    let hedge_delay = healthy.server_latency_quantile(0.95);

    let factors: Vec<f64> = vec![1.0, 1.5, 2.0, 3.0, 5.0, 8.0];
    let inputs: Vec<(usize, f64)> = factors.into_iter().enumerate().collect();
    let rows = parallel_sweep(inputs, |scratch, (i, factor)| {
        // Scenario 1: one slowed server, passive client.
        let slow_plan = FaultPlan::none().slowdown(0, WARMUP, horizon, factor);
        let degraded = ClusterSim::run_with(&cfg().fault_plan(slow_plan.clone()), scratch)
            .expect("degraded run");
        // Scenario 2: same fault, hedging on.
        let hedged = ClusterSim::run_with(
            &cfg()
                .fault_plan(slow_plan)
                .client(ClientPolicy::none().hedge(hedge_delay)),
            scratch,
        )
        .expect("hedged run");
        // Scenario 3: an outage growing with the intensity, retried.
        let crash_len = duration * i as f64 / 10.0;
        let mut outage_cfg = cfg().client(ClientPolicy::none().retry(RetryPolicy::default()));
        if crash_len > 0.0 {
            outage_cfg =
                outage_cfg.fault_plan(FaultPlan::none().crash(0, WARMUP, WARMUP + crash_len));
        }
        let outage = ClusterSim::run_with(&outage_cfg, scratch).expect("outage run");
        let res = outage.resilience();
        vec![
            factor,
            degraded.server_latency_quantile(0.50) * 1e6,
            degraded.server_latency_quantile(0.99) * 1e6,
            hedged.server_latency_quantile(0.99) * 1e6,
            hedged.resilience().hedges_sent as f64,
            hedged.resilience().hedges_won as f64,
            crash_len,
            res.refused as f64,
            res.retries as f64,
            res.forced_misses as f64,
            res.downtime,
            outage.forced_miss_ratio() * 100.0,
        ]
    });

    let mut r = ExpResult::new(
        "fault_sweep",
        "Fault sweep — one faulty server: slowdown factor / outage length vs tail latency",
        &[
            "slow_factor",
            "degraded_p50_us",
            "degraded_p99_us",
            "hedged_p99_us",
            "hedges_sent",
            "hedges_won",
            "crash_len_s",
            "refused",
            "retries",
            "forced_misses",
            "downtime_s",
            "forced_miss_pct",
        ],
    );
    for row in rows {
        r.push_row(row);
    }
    r.note(format!(
        "hedge delay = healthy p95 = {:.1} µs; replica of server j is server (j+1) mod M",
        hedge_delay * 1e6
    ));
    r.note(
        "degraded_p99 grows monotonically with the slowdown factor (pathwise: same draws, \
         scaled service); hedging pulls the tail back toward the healthy p99",
    );
    r.note(
        "outage rows: crash window grows 0 → 50% of the measured duration; refused attempts \
         retry (2 retries, 500 µs base backoff) and surviving failures fall through to the \
         database as forced misses",
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
    fn fault_sweep_tells_a_monotone_story() {
        quick();
        let f = fault_sweep();
        assert_eq!(f.rows.len(), 6);
        let p99 = f.column("degraded_p99_us").unwrap();
        // Tail latency strictly degrades as the slowdown intensifies:
        // same seed, same draws, scaled service times.
        for w in p99.windows(2) {
            assert!(w[1] > w[0], "p99 not strictly increasing: {p99:?}");
        }
        // Hedging can only help, and under a materially slow server it
        // must pull the p99 well below the unhedged tail.
        let hedged = f.column("hedged_p99_us").unwrap();
        for (h, p) in hedged.iter().zip(&p99) {
            assert!(h <= p, "hedged p99 {h} above plain {p}");
        }
        let won = f.column("hedges_won").unwrap();
        assert!(*hedged.last().unwrap() < *p99.last().unwrap() / 2.0);
        assert!(*won.last().unwrap() > 0.0);
        // The outage scenario: no faults at intensity 0, then counters
        // scale with the scheduled downtime.
        let down = f.column("downtime_s").unwrap();
        let crash_len = f.column("crash_len_s").unwrap();
        let refused = f.column("refused").unwrap();
        let forced = f.column("forced_misses").unwrap();
        let retries = f.column("retries").unwrap();
        for i in 0..f.rows.len() {
            assert!((down[i] - crash_len[i]).abs() < 1e-9);
            if i == 0 {
                assert_eq!(refused[i], 0.0);
                assert_eq!(forced[i], 0.0);
                assert_eq!(retries[i], 0.0);
            } else {
                assert!(refused[i] > 0.0);
                assert!(forced[i] > 0.0);
                assert!(retries[i] > 0.0);
                // Longer outages refuse and force more.
                assert!(refused[i] > refused[i - 1]);
                assert!(forced[i] > forced[i - 1]);
            }
        }
    }
}
