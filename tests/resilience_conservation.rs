//! Conservation laws of the fault/resilience accounting, checked at the
//! whole-cluster level under a seeded [`FaultPlan`], at 1 and 4 worker
//! threads.
//!
//! The per-server unit tests in `crates/cluster/src/server.rs` verify
//! the same identities on a single station; this suite proves they
//! survive aggregation across servers, the parallel scheduler, and the
//! retry drain at the horizon.

use memlat::cluster::{
    CacheBackedConfig, CacheRouting, ClientPolicy, ClusterSim, FaultPlan, MissMode, MissRelay,
    RetryPolicy, SimConfig, SimOutput,
};
use memlat::model::ModelParams;

/// Crash and slowdown windows used throughout (seconds, absolute sim
/// time; the horizon is `warmup + duration`).
const CRASH: (usize, f64, f64) = (0, 0.30, 0.45);
const SLOW: (usize, f64, f64, f64) = (1, 0.20, 0.50, 6.0);
const WARMUP: f64 = 0.1;
const DURATION: f64 = 0.6;

fn faulty_config(threads: usize) -> SimConfig {
    let params = ModelParams::builder().build().unwrap();
    let plan = FaultPlan::none()
        .crash(CRASH.0, CRASH.1, CRASH.2)
        .slowdown(SLOW.0, SLOW.1, SLOW.2, SLOW.3);
    let client = ClientPolicy::none().timeout(2e-3).retry(RetryPolicy {
        max_retries: 2,
        base_backoff: 500e-6,
        multiplier: 2.0,
        jitter: 0.5,
    });
    SimConfig::new(params)
        .duration(DURATION)
        .warmup(WARMUP)
        .seed(0xfau64 * 0x1_0001)
        .threads(threads)
        .fault_plan(plan)
        .client(client)
}

fn assert_conservation(out: &SimOutput) {
    let horizon = WARMUP + DURATION;

    // Every failed measured attempt (timeout or refusal) is accounted
    // for exactly once: it either earned a retry or exhausted the
    // budget and became a forced miss. Checked per server, so a
    // cross-server bookkeeping leak cannot cancel out in the totals.
    for (j, summary) in out.summaries().iter().enumerate() {
        let r = &summary.resilience;
        assert_eq!(
            r.timeouts + r.refused,
            r.retries + r.forced_misses,
            "server {j}: failures ≠ retries + forced misses: {r:?}"
        );
    }
    let total = out.resilience();
    assert_eq!(
        total.timeouts + total.refused,
        total.retries + total.forced_misses
    );

    // Equivalent formulation over attempts: measured keys each issue
    // one initial attempt; attempts = keys + retries; every attempt
    // either fails or completes its key; keys complete normally unless
    // forced. So completions + failures == attempts.
    let keys = out.total_keys();
    let attempts = keys + total.retries;
    let completions = keys - total.forced_misses;
    let failures = total.timeouts + total.refused;
    assert_eq!(completions + failures, attempts);

    // The fault actually bit: the crash window refused traffic and the
    // retry budget was exhausted at least once.
    assert!(total.refused > 0, "crash window refused nothing");
    assert!(total.retries > 0, "no retries under a 150 ms crash");
    assert!(total.forced_misses > 0, "no graceful degradation observed");
    assert!(out.forced_miss_ratio() > 0.0);
    // No hedging configured — the hedge counters must stay silent.
    assert_eq!(total.hedges_sent, 0);
    assert_eq!(total.hedges_won, 0);

    // Scheduled downtime/degraded seconds equal the plan's windows
    // clipped to the horizon, and only on the server each was
    // scheduled for.
    let crash_len = (CRASH.2.min(horizon) - CRASH.1.min(horizon)).max(0.0);
    let slow_len = (SLOW.2.min(horizon) - SLOW.1.min(horizon)).max(0.0);
    for (j, summary) in out.summaries().iter().enumerate() {
        let r = &summary.resilience;
        let want_down = if j == CRASH.0 { crash_len } else { 0.0 };
        let want_slow = if j == SLOW.0 { slow_len } else { 0.0 };
        assert!(
            (r.downtime - want_down).abs() < 1e-12,
            "server {j}: downtime {} ≠ scheduled {want_down}",
            r.downtime
        );
        assert!(
            (r.degraded_time - want_slow).abs() < 1e-12,
            "server {j}: degraded_time {} ≠ scheduled {want_slow}",
            r.degraded_time
        );
    }
    assert!((total.downtime - crash_len).abs() < 1e-12);
    assert!((total.degraded_time - slow_len).abs() < 1e-12);

    // Key-level conservation: per-server keys sum to the total, and
    // misses never exceed keys.
    let jobs: u64 = out.summaries().iter().map(|s| s.counters.jobs).sum();
    assert_eq!(jobs, keys);
    for summary in out.summaries() {
        assert!(summary.counters.misses <= summary.counters.jobs);
    }
}

/// A faulted, cache-backed cluster on the coalescing relay: a slow
/// database keeps fetches outstanding long enough that same-key misses
/// coalesce, while the crash/slowdown windows force keys through the
/// timeout → retry → forced-miss path concurrently.
fn coalesced_faulty_config(threads: usize) -> SimConfig {
    let params = ModelParams::builder()
        .db_service_rate(300.0)
        .build()
        .unwrap();
    let plan = FaultPlan::none()
        .crash(0, 0.10, 0.18)
        .slowdown(1, 0.08, 0.25, 6.0);
    let client = ClientPolicy::none()
        .timeout(2e-3)
        .retry(RetryPolicy {
            max_retries: 2,
            base_backoff: 500e-6,
            multiplier: 2.0,
            jitter: 0.5,
        })
        .hedge(1e-3);
    SimConfig::new(params)
        .duration(0.3)
        .warmup(0.05)
        .seed(0xc0a1_fa01)
        .threads(threads)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 2 << 20,
            keyspace: 50_000,
            skew: 1.05,
            mean_value_bytes: 300.0,
            routing: CacheRouting::Independent,
        }))
        .miss_relay(MissRelay::Coalesced)
        .fault_plan(plan)
        .client(client)
}

/// Conservation with parked waiters in play: every database-path key —
/// regular miss or forced (timed-out / refused) miss — resolves exactly
/// once as either a dispatched fetch or a delayed hit. A waiter whose
/// origin request was timed out never reaches the relay (the timeout
/// resolves it to a forced miss first), and a forced miss is keyless by
/// construction, so it always dispatches and can never park.
fn assert_coalesced_conservation(out: &SimOutput) {
    let total = out.resilience();
    let regular: u64 = out.summaries().iter().map(|s| s.counters.misses).sum();
    let db_keys = regular + total.forced_misses;
    assert_eq!(out.db_latency_stats().count(), db_keys);
    let c = out.coalesce();
    assert_eq!(c.dispatched + c.delayed_hits, db_keys, "waiter leaked");
    // Keyless forced misses always dispatch — they can never be absorbed
    // into another key's outstanding fetch.
    assert!(c.dispatched >= total.forced_misses);
    // The regime was chosen so both machineries actually engage.
    assert!(c.delayed_hits > 0, "regime should coalesce");
    assert!(c.wait_time > 0.0);
    assert!(total.forced_misses > 0, "faults should force misses");
    assert!(total.retries > 0);
    // The failure ledger is undisturbed by the relay choice.
    assert_eq!(
        total.timeouts + total.refused,
        total.retries + total.forced_misses
    );
    assert!(total.hedges_won <= total.hedges_sent);
    assert!(total.hedges_sent > 0);
    // Per-server ledgers survive aggregation.
    for (j, summary) in out.summaries().iter().enumerate() {
        let r = &summary.resilience;
        assert_eq!(
            r.timeouts + r.refused,
            r.retries + r.forced_misses,
            "server {j}: failures ≠ retries + forced misses"
        );
    }
}

#[test]
fn coalescing_with_faults_conserves_and_is_thread_invariant() {
    let a = ClusterSim::run(&coalesced_faulty_config(1)).unwrap();
    let b = ClusterSim::run(&coalesced_faulty_config(4)).unwrap();
    assert_coalesced_conservation(&a);
    assert_coalesced_conservation(&b);
    // The parallel scheduler must not perturb waiter parking: counters,
    // coalesce ledgers, and record streams are bit-identical.
    assert_eq!(a.total_keys(), b.total_keys());
    assert_eq!(a.resilience(), b.resilience());
    assert_eq!(a.pooled_latency_sketch(), b.pooled_latency_sketch());
    assert_eq!(a.coalesce(), b.coalesce());
    for (sa, sb) in a.summaries().iter().zip(b.summaries()) {
        assert_eq!(sa.coalesce, sb.coalesce);
        assert_eq!(sa.resilience, sb.resilience);
    }
    for j in 0..a.summaries().len() {
        assert_eq!(a.records(j).s(), b.records(j).s());
        assert_eq!(a.records(j).d(), b.records(j).d());
    }
}

/// A server faulted for the entire horizon: every one of its measured
/// keys exhausts the retry budget and degrades to a keyless forced
/// miss. None of them may park as waiters (nothing to wait on, and a
/// degraded key must resolve immediately at the database), so that
/// server's ledger shows zero delayed hits with every database trip a
/// dispatch, while the healthy servers still coalesce normally.
#[test]
fn fully_faulted_server_never_leaks_waiters() {
    let horizon = 0.05 + 0.3;
    let base = coalesced_faulty_config(1);
    // The window must extend past the horizon, not end at it: backoff
    // retries scheduled near the horizon land *after* the window closes
    // and would find a healthy server.
    let cfg = base.fault_plan(FaultPlan::none().crash(0, 0.0, horizon + 1.0));
    let out = ClusterSim::run(&cfg).unwrap();
    let down = &out.summaries()[0];
    // Downtime accounting clips the scheduled window to the horizon.
    assert!((down.resilience.downtime - horizon).abs() < 1e-12);
    // Every measured key on the dead server was refused into a forced
    // miss; none became a regular (keyed) miss.
    assert_eq!(down.counters.misses, 0, "dead server produced keyed misses");
    assert!(down.resilience.forced_misses > 0);
    assert_eq!(down.counters.jobs, down.resilience.forced_misses);
    // All of them dispatched — a degraded key never parks.
    assert_eq!(down.coalesce.delayed_hits, 0);
    assert_eq!(down.coalesce.wait_time, 0.0);
    assert_eq!(down.coalesce.dispatched, down.resilience.forced_misses);
    // The cluster-wide ledger still balances, and the healthy servers
    // still coalesce.
    let total = out.resilience();
    let regular: u64 = out.summaries().iter().map(|s| s.counters.misses).sum();
    assert_eq!(
        out.db_latency_stats().count(),
        regular + total.forced_misses
    );
    let c = out.coalesce();
    assert_eq!(c.dispatched + c.delayed_hits, regular + total.forced_misses);
    assert!(c.delayed_hits > 0, "healthy servers should still coalesce");
}

#[test]
fn conservation_holds_on_one_thread() {
    let out = ClusterSim::run(&faulty_config(1)).unwrap();
    assert_conservation(&out);
}

#[test]
fn conservation_holds_on_four_threads_and_matches_one() {
    let a = ClusterSim::run(&faulty_config(1)).unwrap();
    let b = ClusterSim::run(&faulty_config(4)).unwrap();
    assert_conservation(&b);

    // The parallel scheduler must not perturb any of the accounting:
    // counters, resilience totals, and the per-key record streams are
    // bit-identical at any worker count.
    assert_eq!(a.total_keys(), b.total_keys());
    assert_eq!(a.resilience(), b.resilience());
    assert_eq!(a.pooled_latency_sketch(), b.pooled_latency_sketch());
    for (sa, sb) in a.summaries().iter().zip(b.summaries()) {
        assert_eq!(sa.counters.jobs, sb.counters.jobs);
        assert_eq!(sa.counters.misses, sb.counters.misses);
        assert_eq!(sa.resilience, sb.resilience);
        assert_eq!(sa.utilization.to_bits(), sb.utilization.to_bits());
    }
    for j in 0..a.summaries().len() {
        assert_eq!(a.records(j).s(), b.records(j).s());
        assert_eq!(a.records(j).d(), b.records(j).d());
    }
}
