//! Cross-thread determinism of *faulty* runs.
//!
//! PR 1 established that healthy runs are bit-identical across thread
//! counts. The fault subsystem adds new random draws (backoff jitter,
//! hedge replica sampling) and new merge-step work (the hedging min
//! pass); this test extends the invariant to runs with crashes,
//! slowdowns, retries, timeouts, and hedging all active at once:
//! threads = 1, 4, and 64 must agree byte-for-byte, down to a rendered
//! CSV of every observable.

use memlat_cluster::{
    CacheBackedConfig, ClientPolicy, ClusterSim, FaultPlan, MissMode, RetryPolicy, SimConfig,
    SimOutput, SimScratch,
};
use memlat_model::ModelParams;
use std::fmt::Write as _;

fn faulty_config() -> SimConfig {
    let params = ModelParams::builder().build().unwrap();
    SimConfig::new(params)
        .duration(0.4)
        .warmup(0.1)
        .seed(0xfa07)
        .fault_plan(
            FaultPlan::none()
                .crash(1, 0.15, 0.25)
                .slowdown(2, 0.2, 0.4, 4.0)
                .crash(3, 0.3, 0.35),
        )
        .client(
            ClientPolicy::none()
                .timeout(3e-3)
                .retry(RetryPolicy {
                    max_retries: 3,
                    base_backoff: 500e-6,
                    multiplier: 2.0,
                    jitter: 0.25,
                })
                .hedge(1e-3),
        )
}

/// Renders every observable of a run into one CSV string, bit-exact
/// (floats via their raw bit patterns, so formatting cannot hide a
/// divergence).
fn render_csv(out: &SimOutput) -> String {
    let mut csv = String::new();
    csv.push_str("section,server,field,value\n");
    let total = out.resilience();
    let _ = writeln!(csv, "cluster,,total_keys,{}", out.total_keys());
    let _ = writeln!(
        csv,
        "cluster,,miss_ratio,{:016x}",
        out.miss_ratio().to_bits()
    );
    let _ = writeln!(
        csv,
        "cluster,,forced_miss_ratio,{:016x}",
        out.forced_miss_ratio().to_bits()
    );
    for (name, v) in [
        ("timeouts", total.timeouts),
        ("refused", total.refused),
        ("retries", total.retries),
        ("forced_misses", total.forced_misses),
        ("hedges_sent", total.hedges_sent),
        ("hedges_won", total.hedges_won),
    ] {
        let _ = writeln!(csv, "cluster,,{name},{v}");
    }
    let _ = writeln!(csv, "cluster,,downtime,{:016x}", total.downtime.to_bits());
    let _ = writeln!(
        csv,
        "cluster,,degraded_time,{:016x}",
        total.degraded_time.to_bits()
    );
    for (j, s) in out.summaries().iter().enumerate() {
        let _ = writeln!(csv, "server,{j},jobs,{}", s.counters.jobs);
        let _ = writeln!(csv, "server,{j},misses,{}", s.counters.misses);
        let _ = writeln!(
            csv,
            "server,{j},latency_mean,{:016x}",
            s.latency.mean().to_bits()
        );
        let _ = writeln!(
            csv,
            "server,{j},utilization,{:016x}",
            s.utilization.to_bits()
        );
        let _ = writeln!(csv, "server,{j},timeouts,{}", s.resilience.timeouts);
        let _ = writeln!(csv, "server,{j},refused,{}", s.resilience.refused);
        let _ = writeln!(csv, "server,{j},retries,{}", s.resilience.retries);
        let _ = writeln!(
            csv,
            "server,{j},forced_misses,{}",
            s.resilience.forced_misses
        );
        let _ = writeln!(csv, "server,{j},hedges_sent,{}", s.resilience.hedges_sent);
        let _ = writeln!(csv, "server,{j},hedges_won,{}", s.resilience.hedges_won);
    }
    let _ = writeln!(
        csv,
        "db,,latency_mean,{:016x}",
        out.db_latency_stats().mean().to_bits()
    );
    let _ = writeln!(csv, "db,,count,{}", out.db_latency_stats().count());
    for p in [0.5, 0.9, 0.99] {
        let _ = writeln!(
            csv,
            "quantile,,p{},{:016x}",
            (p * 100.0) as u32,
            out.server_latency_quantile(p).to_bits()
        );
    }
    csv
}

#[test]
fn faulty_run_is_bit_identical_across_thread_counts() {
    let base = faulty_config();
    let seq = ClusterSim::run(&base.clone().threads(1)).unwrap();

    // The scenario actually exercises every mechanism.
    let total = seq.resilience();
    assert!(total.refused > 0, "no refusals — crash windows inert");
    assert!(total.timeouts > 0, "no timeouts — slowdown windows inert");
    assert!(total.retries > 0, "no retries issued");
    assert!(total.forced_misses > 0, "no forced misses");
    assert!(
        total.hedges_sent > 0 && total.hedges_won > 0,
        "hedging inert"
    );

    let seq_csv = render_csv(&seq);
    for threads in [4, 64] {
        let par = ClusterSim::run(&base.clone().threads(threads)).unwrap();
        // Raw per-key records: every pair identical, every server.
        assert_eq!(seq.total_keys(), par.total_keys());
        for j in 0..seq.shares().len() {
            assert_eq!(
                seq.records(j),
                par.records(j),
                "server {j} records differ at {threads} threads"
            );
        }
        // Streaming summaries bit-identical, resilience included.
        assert_eq!(seq.summaries(), par.summaries());
        assert_eq!(seq.pooled_latency_sketch(), par.pooled_latency_sketch());
        assert_eq!(seq.db_latency_stats(), par.db_latency_stats());
        assert_eq!(seq.db_latency_sketch(), par.db_latency_sketch());
        // And the rendered CSV agrees byte-for-byte.
        assert_eq!(
            seq_csv,
            render_csv(&par),
            "CSV output diverges at {threads} threads"
        );
    }
}

#[test]
fn faulty_run_is_reproducible_per_seed() {
    let a = ClusterSim::run(&faulty_config()).unwrap();
    let b = ClusterSim::run(&faulty_config()).unwrap();
    assert_eq!(render_csv(&a), render_csv(&b));
    // A different seed gives a different trajectory.
    let c = ClusterSim::run(&faulty_config().seed(0xfa08)).unwrap();
    assert_ne!(render_csv(&a), render_csv(&c));
}

#[test]
fn a_failing_server_fails_the_run_at_every_thread_count() {
    // A 1 KiB cache passes config validation but is below one slab page,
    // so every server's miss-state build rejects it inside the servers
    // stage; the lowest failing server's error is the run's.
    let params = ModelParams::builder().build().unwrap();
    let cfg = SimConfig::new(params)
        .duration(0.1)
        .seed(7)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 1 << 10,
            ..CacheBackedConfig::default()
        }));
    assert!(cfg.validate().is_ok());
    let errors = [1, 4].map(|threads| {
        match ClusterSim::run_with(&cfg.clone().threads(threads), &mut SimScratch::new()) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a sub-page cache ran at {threads} threads"),
        }
    });
    assert!(
        errors[0].contains("memory limit below one page"),
        "{}",
        errors[0]
    );
    assert_eq!(errors[0], errors[1]);
}
