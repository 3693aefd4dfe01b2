//! Differential proof that fault injection is free when unused.
//!
//! The fault/resilience subsystem rewired the inner server loop (batch
//! stream + retry-queue merge, crash/slowdown/timeout branches). This
//! test pins the claim that none of it perturbs a healthy run: with an
//! empty [`FaultPlan`] and a passive [`ClientPolicy`], the simulator
//! must consume exactly the random draws of the pre-fault code path and
//! produce **bit-identical** output.
//!
//! The constants below were captured by running the pre-fault
//! simulator (commit `008cca9`, before this subsystem existed) at this
//! exact configuration. If this test fails, the healthy path changed —
//! that is a regression, not a tolerance issue.

mod common;

use common::fnv1a_records;
use memlat_cluster::{ClientPolicy, ClusterSim, FaultPlan, SimConfig, SimOutput};
use memlat_model::ModelParams;

const SEED: u64 = 0xd1ff;

/// Golden fingerprints of the pre-fault simulator's output.
const GOLDEN_TOTAL_KEYS: u64 = 124_165;
const GOLDEN_RECORDS_FNV: u64 = 0xfb94_452f_18da_4da3;
// Re-captured when the GP gap law moved from libm `powf` to the
// deterministic `dexp(-ξ·dln u)` composition (the speculative block
// arrival pipeline): every inter-batch gap drifts by ≤ a few ulps,
// which the f32 records, key counts, and the other f64 statistics all
// absorb at this configuration — only this pooled f64 Welford mean
// moved, by 5 ulps. Earlier the constants survived the `ln`→`dln`
// service-law switch the same way.
const GOLDEN_POOLED_MEAN_BITS: u64 = 0x3f13_9b91_8c24_ffa0;
const GOLDEN_DB_MEAN_BITS: u64 = 0x3f51_300e_13f2_9e87;
const GOLDEN_ETS150_BITS: u64 = 0x3f3c_d96f_e000_0000;
const GOLDEN_MISS_RATIO_BITS: u64 = 0x3f84_95b1_6492_3aaa;
const GOLDEN_UTIL0_BITS: u64 = 0x3fe8_f1be_30d6_d5ac;

fn golden_config() -> SimConfig {
    let params = ModelParams::builder().build().unwrap();
    SimConfig::new(params)
        .duration(0.5)
        .warmup(0.1)
        .seed(SEED)
        .threads(1)
}

fn assert_matches_golden(out: &SimOutput, label: &str) {
    assert_eq!(out.total_keys(), GOLDEN_TOTAL_KEYS, "{label}: total keys");
    assert_eq!(
        fnv1a_records(out),
        GOLDEN_RECORDS_FNV,
        "{label}: per-key record bits"
    );
    assert_eq!(
        out.pooled_latency_stats().mean().to_bits(),
        GOLDEN_POOLED_MEAN_BITS,
        "{label}: pooled latency mean"
    );
    assert_eq!(
        out.db_latency_stats().mean().to_bits(),
        GOLDEN_DB_MEAN_BITS,
        "{label}: db latency mean"
    );
    assert_eq!(
        out.expected_server_latency(150).to_bits(),
        GOLDEN_ETS150_BITS,
        "{label}: E[T_S(150)]"
    );
    assert_eq!(
        out.miss_ratio().to_bits(),
        GOLDEN_MISS_RATIO_BITS,
        "{label}: miss ratio"
    );
    assert_eq!(
        out.utilization()[0].to_bits(),
        GOLDEN_UTIL0_BITS,
        "{label}: server-0 utilization"
    );
}

#[test]
fn default_config_is_bit_identical_to_pre_fault_simulator() {
    let out = ClusterSim::run(&golden_config()).unwrap();
    assert_matches_golden(&out, "default config");
    // And the run really was fault-free.
    assert!(!out.resilience().any());
    assert_eq!(out.forced_miss_ratio(), 0.0);
}

#[test]
fn explicit_empty_plan_and_passive_client_change_nothing() {
    // Spelling out FaultPlan::none() / ClientPolicy::none() must be
    // exactly the defaults — no extra RNG draws, no new branches taken.
    let cfg = golden_config()
        .fault_plan(FaultPlan::none())
        .client(ClientPolicy::none());
    let out = ClusterSim::run(&cfg).unwrap();
    assert_matches_golden(&out, "explicit empty plan");
}

#[test]
fn empty_plan_is_bit_identical_at_every_thread_count() {
    for threads in [2, 4, 64] {
        let out = ClusterSim::run(&golden_config().threads(threads)).unwrap();
        assert_matches_golden(&out, &format!("{threads} threads"));
    }
}

#[test]
fn timeout_that_never_fires_still_changes_nothing() {
    // A timeout far above any sojourn takes the fault-aware branch but
    // never fails an attempt: the draw sequence must stay identical.
    let cfg = golden_config().client(ClientPolicy::none().timeout(1e3));
    let out = ClusterSim::run(&cfg).unwrap();
    assert_matches_golden(&out, "inert timeout");
    assert!(!out.resilience().any());
}
