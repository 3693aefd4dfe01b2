//! Simulator throughput: keys/second through the queueing engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use memlat_bench::{base_params, cluster_config, UTILIZATIONS};
use memlat_cluster::{
    assembly::assemble_requests,
    config::MissMode,
    fault::{ClientPolicy, ServerFaults},
    server::{
        simulate_server_streaming_with, BlockScratch, KeyRecord, RecordSink, ServerSimParams,
    },
    ClusterSim, Retention, SimConfig, SimScratch,
};
use memlat_dist::GapLaw;
use memlat_workload::facebook;
use rand::SeedableRng;

/// Counts the records it is handed.
struct CountingSink(u64);

impl RecordSink for CountingSink {
    fn record(&mut self, _: &KeyRecord) {
        self.0 += 1;
    }
}

/// The single-server DES hot loop in isolation: batch draws → FCFS
/// Lindley recursion → miss decision, streamed into a counting sink.
fn bench_single_server(c: &mut Criterion) {
    let mut g = c.benchmark_group("server");
    g.sample_size(10);
    // 0.5 s of Facebook traffic at one server ≈ 31 K keys.
    g.throughput(Throughput::Elements(31_000));
    g.bench_function("facebook_0p5s_streaming", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut keys = CountingSink(0);
            let stats = simulate_server_streaming_with(
                ServerSimParams {
                    interarrival: GapLaw::from(facebook::interarrival().unwrap()),
                    concurrency: facebook::CONCURRENCY_Q,
                    service_rate: facebook::SERVICE_RATE,
                    miss_ratio: facebook::MISS_RATIO,
                    miss_mode: &MissMode::FixedRatio,
                    popularity: None,
                    routed: None,
                    warmup: 0.0,
                    duration: 0.5,
                    faults: ServerFaults::none(),
                    client: ClientPolicy::none(),
                    block: 1,
                },
                &mut rng,
                &mut BlockScratch::new(),
                &mut keys,
            )
            .unwrap();
            std::hint::black_box((keys.0, stats.utilization));
        })
    });
    g.finish();
}

/// The full cluster at the three utilization points of the `bench`
/// binary, on the zero-materialization path with a reused scratch.
fn bench_cluster_utilizations(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_util");
    g.sample_size(10);
    for &(label, rho) in UTILIZATIONS {
        g.bench_function(format!("{label}_0p2s_streaming").as_str(), |b| {
            let mut scratch = SimScratch::new();
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let cfg = cluster_config(rho, 0.2)
                    .seed(seed)
                    .retention(Retention::Summary);
                std::hint::black_box(ClusterSim::run_with(&cfg, &mut scratch).unwrap());
            })
        });
    }
    g.finish();
}

fn bench_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster");
    g.sample_size(10);
    // 0.2 s of Facebook traffic ≈ 50 K keys across 4 servers.
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("facebook_0p2s", |b| {
        let mut seed = 0u64;
        b.iter_batched(
            || {
                seed += 1;
                SimConfig::new(base_params())
                    .duration(0.2)
                    .warmup(0.0)
                    .seed(seed)
            },
            |cfg| ClusterSim::run(&cfg).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Sequential vs parallel dispatch on the Table-3 configuration.
/// The outputs are bit-identical; only wall-clock should differ.
fn bench_parallel_speedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_threads");
    g.sample_size(10);
    for threads in [1usize, 4] {
        g.bench_function(format!("table3_0p5s_t{threads}").as_str(), |b| {
            let mut seed = 0u64;
            b.iter_batched(
                || {
                    seed += 1;
                    SimConfig::new(base_params())
                        .duration(0.5)
                        .warmup(0.1)
                        .seed(seed)
                        .threads(threads)
                },
                |cfg| ClusterSim::run(&cfg).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_assembly(c: &mut Criterion) {
    let out = ClusterSim::run(
        &SimConfig::new(base_params())
            .duration(0.5)
            .warmup(0.1)
            .seed(3),
    )
    .unwrap();
    // Table 3's size: ~1 M records (~8 MB of `(s, d)` columns) no longer
    // fit in L2, so each sampled key pays for a load from further out —
    // the regime a full Table 3 assembly runs in. The 0.5 s run above
    // (~125 k records, ~1 MB) stays cache-resident.
    let table3 = ClusterSim::run(
        &SimConfig::new(base_params())
            .duration(4.0)
            .warmup(0.2)
            .seed(3),
    )
    .unwrap();
    let mut g = c.benchmark_group("assembly");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("requests_n150_1k", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        b.iter(|| assemble_requests(std::hint::black_box(&out), 150, 1_000, &mut rng))
    });
    g.bench_function("requests_n150_1k_table3_size", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        b.iter(|| assemble_requests(std::hint::black_box(&table3), 150, 1_000, &mut rng))
    });
    g.finish();
}

fn bench_e2e(c: &mut Criterion) {
    use memlat_cluster::e2e::{run_e2e, E2eConfig};
    let mut g = c.benchmark_group("e2e");
    g.sample_size(10);
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("requests_1k", |b| {
        let mut seed = 0u64;
        b.iter_batched(
            || {
                seed += 1;
                E2eConfig::new(base_params()).requests(1_000).seed(seed)
            },
            |cfg| run_e2e(&cfg).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_single_server,
    bench_cluster,
    bench_cluster_utilizations,
    bench_parallel_speedup,
    bench_assembly,
    bench_e2e
);
criterion_main!(benches);
