//! Sampling and Laplace-transform throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use memlat_dist::Discrete;
use memlat_dist::{Continuous, Exponential, GeneralizedPareto, Zipf};
use rand::SeedableRng;

fn bench_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampling");
    g.throughput(Throughput::Elements(1_000));
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);

    let exp = Exponential::new(80_000.0).unwrap();
    g.bench_function("exponential_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1_000 {
                acc += exp.sample(&mut rng);
            }
            std::hint::black_box(acc)
        })
    });

    let gpd = GeneralizedPareto::facebook(0.15, 56_250.0).unwrap();
    g.bench_function("generalized_pareto_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1_000 {
                acc += gpd.sample(&mut rng);
            }
            std::hint::black_box(acc)
        })
    });

    let zipf = Zipf::new(50_000_000, 1.01).unwrap();
    g.bench_function("zipf_50m_ranks_1k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1_000 {
                acc = acc.wrapping_add(zipf.sample(&mut rng));
            }
            std::hint::black_box(acc)
        })
    });
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    use rand::RngCore;
    let mut g = c.benchmark_group("kernels");
    g.throughput(Throughput::Elements(4_096));
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let bits: Vec<u64> = (0..4_096).map(|_| rng.next_u64()).collect();
    let uniforms: Vec<f64> = bits
        .iter()
        .map(|&b| memlat_dist::open_unit_from_bits(b))
        .collect();

    // Scalar deterministic-libm ports, one call per element.
    g.bench_function("dln_4k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &u in &uniforms {
                acc += memlat_dist::simd::dln(u);
            }
            std::hint::black_box(acc)
        })
    });
    g.bench_function("dexp_4k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &u in &uniforms {
                acc += memlat_dist::simd::dexp(-u);
            }
            std::hint::black_box(acc)
        })
    });

    // Dispatched slice kernels (AVX2 where the host supports it).
    let mut out = Vec::with_capacity(bits.len());
    g.bench_function("exp_from_bits_4k", |b| {
        b.iter(|| {
            // The kernel appends; without the clear the vector grows by
            // 4 096 every iteration and the timing drifts upward.
            out.clear();
            memlat_dist::simd::exp_from_bits(&bits, 80_000.0, &mut out);
            std::hint::black_box(out.last().copied())
        })
    });
    // The arrival block, both ways: the pre-PR-9 serial recurrence
    // (`powf` inside the `clock += gap` chain, one dependent iteration
    // per batch) against the speculative pipeline's shape (lane
    // transform over banked bits, then a serial prefix sum of cheap
    // adds). Same 4 096 gap draws, same GP(ξ = 0.15) law.
    let (xi, sox) = (0.15, 1.185e-4);
    g.bench_function("arrival_block_powf_serial_4k", |b| {
        b.iter(|| {
            let mut clock = 0.0;
            for &u in &uniforms {
                clock += sox * (u.powf(-xi) - 1.0);
            }
            std::hint::black_box(clock)
        })
    });
    let mut gaps = Vec::with_capacity(bits.len());
    g.bench_function("arrival_block_lane_pipeline_4k", |b| {
        b.iter(|| {
            gaps.clear();
            memlat_dist::simd::gp_from_bits(&bits, xi, sox, &mut gaps);
            let mut clock = 0.0;
            for &gap in &gaps {
                clock += gap;
            }
            std::hint::black_box(clock)
        })
    });
    g.finish();
}

fn bench_laplace(c: &mut Criterion) {
    let mut g = c.benchmark_group("laplace");
    let gpd = GeneralizedPareto::facebook(0.15, 56_250.0).unwrap();
    let exp = Exponential::new(56_250.0).unwrap();
    g.bench_function("gpd_numeric", |b| {
        b.iter(|| std::hint::black_box(&gpd).laplace(std::hint::black_box(13_000.0)))
    });
    g.bench_function("exponential_closed", |b| {
        b.iter(|| std::hint::black_box(&exp).laplace(std::hint::black_box(13_000.0)))
    });
    g.finish();
}

criterion_group!(benches, bench_sampling, bench_kernels, bench_laplace);
criterion_main!(benches);
