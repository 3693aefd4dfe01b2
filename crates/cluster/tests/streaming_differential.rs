//! Differential test: the streaming zero-materialization hot path in
//! [`ClusterSim`] is bit-identical to a materialize-then-fold reference
//! pipeline built from the same public primitives.
//!
//! The reference reconstructs the pre-streaming architecture: collect
//! every per-key record into a `Vec` first (via [`simulate_server`],
//! the buffering wrapper), then fold the buffers into records + miss
//! stream + database stage in a second pass — exactly the shape the
//! simulator had before the per-key loop was converted to a sink.
//! Fingerprints are FNV-1a over the raw f32 bit patterns, so any
//! reordering, rounding, or RNG drift fails the test.

mod common;

use common::fnv1a_columns;
use memlat_cluster::{
    config::MissMode,
    database::{run_db_stage_with, MissArrival},
    fault::{ClientPolicy, ServerFaults},
    server::{simulate_server, ServerSimParams},
    ClusterSim, SimConfig,
};
use memlat_des::stream_rng;
use memlat_dist::GapLaw;
use memlat_model::ModelParams;

/// [`fnv1a_columns`] over materialized per-server records.
fn fnv1a_records(records: &[Vec<(f32, f32)>]) -> u64 {
    fnv1a_columns(records.iter().map(|server| server.iter().copied()))
}

/// The pre-streaming reference: materialize every server's records,
/// then fold misses and the database stage over the buffers.
fn materialized_reference(params: &ModelParams, cfg: &SimConfig) -> Vec<Vec<(f32, f32)>> {
    let shares = params.load().shares(params.servers()).unwrap();
    let q = params.concurrency();
    let mut records: Vec<Vec<(f32, f32)>> = Vec::new();
    let mut all_misses: Vec<MissArrival> = Vec::new();
    for (j, &p) in shares.iter().enumerate() {
        let mut recs = Vec::new();
        if p > 0.0 {
            let lam_j = p * params.total_key_rate();
            let gaps: GapLaw = params.arrival().gap_law((1.0 - q) * lam_j).unwrap();
            let mut rng = stream_rng(cfg.seed, 1000 + j as u64);
            let run = simulate_server(
                ServerSimParams {
                    interarrival: gaps,
                    concurrency: q,
                    service_rate: params.service_rate(),
                    miss_ratio: params.miss_ratio(),
                    miss_mode: &MissMode::FixedRatio,
                    popularity: None,
                    routed: None,
                    warmup: cfg.warmup,
                    duration: cfg.duration,
                    faults: ServerFaults::none(),
                    client: ClientPolicy::none(),
                    // The reference stays on the scalar loop; the
                    // streaming run under test uses the default block.
                    block: 1,
                },
                &mut rng,
            )
            .unwrap();
            // Second pass over the materialized buffer: records + misses.
            for (idx, r) in run.records.iter().enumerate() {
                if r.missed || r.forced {
                    all_misses.push(MissArrival {
                        time: r.completion,
                        origin: (j as u32, idx as u32),
                        key: if r.forced {
                            memlat_cluster::database::NO_KEY
                        } else {
                            r.key
                        },
                    });
                }
                recs.push((r.server_latency as f32, 0.0f32));
            }
        }
        records.push(recs);
    }
    all_misses.sort_by(|a, b| a.time.total_cmp(&b.time));
    let mut db_rng = stream_rng(cfg.seed, 2_000_000);
    run_db_stage_with(
        &all_misses,
        cfg.effective_db_shards(),
        params.db_service_rate(),
        &mut db_rng,
        |(server, idx), d| records[server as usize][idx as usize].1 = d as f32,
    );
    records
}

fn streaming_records(cfg: &SimConfig) -> Vec<Vec<(f32, f32)>> {
    let out = ClusterSim::run(cfg).unwrap();
    (0..out.shares().len())
        .map(|j| out.records(j).iter().collect())
        .collect()
}

fn assert_bit_identical(params: ModelParams, seed: u64) {
    let base = SimConfig::new(params.clone())
        .duration(0.4)
        .warmup(0.1)
        .seed(seed);
    let reference = materialized_reference(&params, &base);
    assert!(
        reference.iter().map(Vec::len).sum::<usize>() > 1_000,
        "reference run produced too few keys to be meaningful"
    );
    let ref_fnv = fnv1a_records(&reference);
    for threads in [1usize, 4] {
        let got = streaming_records(&base.clone().threads(threads));
        assert_eq!(
            got.iter().map(Vec::len).collect::<Vec<_>>(),
            reference.iter().map(Vec::len).collect::<Vec<_>>(),
            "per-server key counts diverged at threads={threads}"
        );
        assert_eq!(
            fnv1a_records(&got),
            ref_fnv,
            "streaming records diverged from materialized reference at threads={threads}"
        );
    }
}

/// Table-3 configuration (the paper's default Facebook parameters).
#[test]
fn streaming_matches_materialized_on_table3_config() {
    let params = ModelParams::builder().build().unwrap();
    assert_bit_identical(params, 0x7ab1e3);
}

/// Fig-7-style configuration: elevated per-server key rate, where the
/// queueing (not the service floor) dominates and any drift in the
/// draw order would show immediately.
#[test]
fn streaming_matches_materialized_on_fig07_config() {
    let params = ModelParams::builder()
        .key_rate_per_server(75_000.0)
        .build()
        .unwrap();
    assert_bit_identical(params, 0xf17);
}
