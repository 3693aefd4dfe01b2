//! Inject faults into the cluster simulator and watch the client-side
//! defenses work: a mid-run server outage with retries, a slow server
//! with hedged requests, and the tail-latency price of each.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use memlat::cluster::{ClientPolicy, ClusterSim, FaultPlan, RetryPolicy, SimConfig};
use memlat::model::ModelParams;

fn p99_us(out: &memlat::cluster::SimOutput) -> f64 {
    out.server_latency_quantile(0.99) * 1e6
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = ModelParams::builder().build()?;
    let base = SimConfig::new(params).duration(1.0).warmup(0.2).seed(77);

    // Healthy baseline.
    let healthy = ClusterSim::run(&base)?;
    println!(
        "healthy baseline: {} keys, p99 = {:.0} µs",
        healthy.total_keys(),
        p99_us(&healthy)
    );
    assert!(!healthy.resilience().any());

    // Scenario 1 — server 1 crashes for 300 ms mid-run; clients retry
    // with exponential backoff, exhausted keys fall through to the
    // database as forced misses.
    println!("\n— outage: server 1 down 0.5 s – 0.8 s, clients retry —");
    let outage_cfg = base
        .clone()
        .fault_plan(FaultPlan::none().crash(1, 0.5, 0.8))
        .client(ClientPolicy::none().retry(RetryPolicy {
            max_retries: 3,
            base_backoff: 1e-3,
            multiplier: 2.0,
            jitter: 0.2,
        }));
    let outage = ClusterSim::run(&outage_cfg)?;
    let res = outage.resilience();
    println!(
        "  refused {} | retries {} | forced misses {} ({:.3}% of keys) | downtime {:.2} s",
        res.refused,
        res.retries,
        res.forced_misses,
        outage.forced_miss_ratio() * 100.0,
        res.downtime,
    );
    println!(
        "  retries recovered {:.1}% of refused attempts; p99 = {:.0} µs",
        100.0 * (1.0 - res.forced_misses as f64 / res.refused.max(1) as f64),
        p99_us(&outage)
    );

    // Scenario 2 — server 0 runs 5× slow for 600 ms; hedged duplicates
    // to the replica after a healthy-p95 delay pull the tail back.
    println!("\n— degradation: server 0 at 5× service time 0.3 s – 0.9 s, hedging on —");
    let slow_plan = FaultPlan::none().slowdown(0, 0.3, 0.9, 5.0);
    let slow = ClusterSim::run(&base.clone().fault_plan(slow_plan.clone()))?;
    let delay = healthy.server_latency_quantile(0.95);
    let hedged = ClusterSim::run(
        &base
            .clone()
            .fault_plan(slow_plan)
            .client(ClientPolicy::none().hedge(delay)),
    )?;
    let hres = hedged.resilience();
    println!(
        "  unhedged p99 = {:.0} µs | hedged p99 = {:.0} µs (hedge delay {:.0} µs)",
        p99_us(&slow),
        p99_us(&hedged),
        delay * 1e6
    );
    println!(
        "  hedges sent {} | won {} ({:.1}%)",
        hres.hedges_sent,
        hres.hedges_won,
        100.0 * hres.hedges_won as f64 / hres.hedges_sent.max(1) as f64
    );
    println!(
        "  mean latency at server 0: unhedged {:.0} µs | hedged {:.0} µs",
        slow.summary(0).latency.mean() * 1e6,
        hedged.summary(0).latency.mean() * 1e6,
    );

    // Scenario 3 — add a per-request timeout on top: bounded worst case,
    // paid for with forced misses.
    println!("\n— same degradation, 2 ms timeout, no retries —");
    let timed = ClusterSim::run(
        &base
            .fault_plan(FaultPlan::none().slowdown(0, 0.3, 0.9, 5.0))
            .client(ClientPolicy::none().timeout(2e-3)),
    )?;
    let tres = timed.resilience();
    println!(
        "  timeouts {} → forced misses {} ({:.2}% of keys); p99 = {:.0} µs",
        tres.timeouts,
        tres.forced_misses,
        timed.forced_miss_ratio() * 100.0,
        p99_us(&timed)
    );
    Ok(())
}
