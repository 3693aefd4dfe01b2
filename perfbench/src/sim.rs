//! The simulator workloads: `sim_paper`, `sim_lru_ring` and `sim_m10k`.
//!
//! The untraced run times whole repetitions of `ClusterSim::run_with`
//! (plus request assembly on `sim_paper`) on one thread. The traced run
//! re-drives the same configuration layer by layer through the public
//! functions of `memlat_cluster`, `memlat_workload`, `memlat_des`,
//! `memlat_dist`, `memlat_stats` and `memlat_cache`, with a span around
//! each call.

use std::sync::Arc;
use std::time::Instant;

use memlat_cache::{Store, StoreConfig};
use memlat_cluster::assembly::assemble_requests;
use memlat_cluster::database::{
    run_db_stage_coalesced_with, run_db_stage_with, MissArrival, NO_KEY,
};
use memlat_cluster::server::{
    exp_sample, simulate_server_streaming_with, BlockScratch, KeyBlock, KeyRecord, RecordSink,
    ServerSimParams,
};
use memlat_cluster::{
    build_miss_state, CacheBackedConfig, CacheRouting, ClusterSim, KeyColumns, MissMode, MissRelay,
    Retention, RoutedHandle, SimConfig, SimOutput, SimScratch,
};
use memlat_des::{stream_rng, FcfsStation};
use memlat_dist::GeneralizedPareto;
use memlat_model::asymptotics::che_miss_ratio;
use memlat_model::ModelParams;
use memlat_stats::{QuantileSketch, StreamingStats};
use memlat_workload::{ArrivalScratch, BatchArrivals, RoutedKeyspace, ZipfPopularity};
use rand::{RngCore, SeedableRng};

use crate::report::Metric;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Table 3's assembly ratio: 60 000 requests per 1 M simulated keys.
const REQUESTS_PER_KEY: f64 = 0.06;
/// Keys per end-user request on `sim_paper` (the paper's `N`).
const KEYS_PER_REQUEST: u64 = 150;
/// Stream tag mixed into the seed for request assembly.
const ASSEMBLY_STREAM: u64 = 0xa55e_b1e5;
/// The Theorem-1 tolerance of the repository's own validation tests
/// (`tests/theorem1_validation.rs`) for short runs at ξ = 0.15.
const THEOREM1_TOLERANCE: f64 = 0.15;
/// Traced rounds at least; each layer metric is their median.
pub const MIN_ROUNDS: u32 = 3;
/// Traced rounds at most (bounds the spans kept in memory).
pub const MAX_ROUNDS: u32 = 5;
/// Keys per span on the scalar replays (one clock read pair per chunk).
const CHUNK: usize = 1024;

/// One simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// The Table 3 pipeline at paper defaults, with assembly.
    Paper,
    /// Emergent miss ratio: consistent-hash ring over LRU stores.
    LruRing,
    /// Balanced fixed-ratio cluster of 10 000 servers at ρ = 0.70.
    M10k,
}

/// `sim_lru_ring`'s key population.
const LRU_CACHE: CacheBackedConfig = CacheBackedConfig {
    memory_bytes: 8 << 20,
    keyspace: 1_000_000,
    skew: 1.4,
    mean_value_bytes: 1_000.0,
    routing: CacheRouting::ConsistentHash { vnodes: 128 },
};

impl SimWorkload {
    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "sim_paper" => Some(Self::Paper),
            "sim_lru_ring" => Some(Self::LruRing),
            "sim_m10k" => Some(Self::M10k),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Paper => "sim_paper",
            Self::LruRing => "sim_lru_ring",
            Self::M10k => "sim_m10k",
        }
    }

    /// The configuration at full size (`scale = 1`); `scale` shrinks the
    /// simulated warm-up and duration for tests.
    ///
    /// # Panics
    ///
    /// Never for the constants below.
    #[must_use]
    pub fn config(self, seed: u64, scale: f64) -> SimConfig {
        match self {
            Self::Paper => SimConfig::new(
                ModelParams::builder()
                    .build()
                    .expect("paper defaults are valid"),
            )
            .duration(4.0 * scale)
            .warmup(0.2 * scale),
            // The emergent-r conformance grid's rate-compressed clock
            // (key and service rates scaled together leave r unchanged
            // but let the LRU fill within the warm-up).
            Self::LruRing => SimConfig::new(
                ModelParams::builder()
                    .key_rate_per_server(200_000.0)
                    .service_rate(800_000.0)
                    .db_service_rate(50_000.0)
                    .build()
                    .expect("valid emergent-r params"),
            )
            .duration(0.75 * scale)
            .warmup(1.5 * scale)
            .db_shards(64)
            .retention(Retention::Summary)
            .miss_mode(MissMode::CacheBacked(LRU_CACHE))
            .miss_relay(MissRelay::Coalesced),
            Self::M10k => SimConfig::new(
                ModelParams::builder()
                    .servers(10_000)
                    .key_rate_per_server(0.70 * 80_000.0)
                    .build()
                    .expect("valid scaling params"),
            )
            .duration(0.008 * scale)
            .warmup(0.002 * scale)
            .retention(Retention::Summary),
        }
        .seed(seed)
        .threads(1)
    }

    /// Parameters recorded in the run manifest.
    #[must_use]
    pub fn manifest_params(self, cfg: &SimConfig) -> Vec<(String, String)> {
        let p = &cfg.params;
        let mut out = vec![
            ("servers".to_string(), p.servers().to_string()),
            ("key_rate_total".to_string(), p.total_key_rate().to_string()),
            ("service_rate".to_string(), p.service_rate().to_string()),
            (
                "db_service_rate".to_string(),
                p.db_service_rate().to_string(),
            ),
            ("concurrency_q".to_string(), p.concurrency().to_string()),
            ("arrival".to_string(), format!("{:?}", p.arrival())),
            ("miss_ratio_config".to_string(), p.miss_ratio().to_string()),
            ("warmup_s".to_string(), cfg.warmup.to_string()),
            ("duration_s".to_string(), cfg.duration.to_string()),
            ("retention".to_string(), format!("{:?}", cfg.retention)),
            ("miss_mode".to_string(), format!("{:?}", cfg.miss_mode)),
            ("miss_relay".to_string(), format!("{:?}", cfg.miss_relay)),
            (
                "db_shards".to_string(),
                cfg.effective_db_shards().to_string(),
            ),
            ("block".to_string(), cfg.effective_block().to_string()),
        ];
        if self == Self::Paper {
            out.push(("keys_per_request".into(), KEYS_PER_REQUEST.to_string()));
            out.push(("requests_per_key".into(), REQUESTS_PER_KEY.to_string()));
        }
        out
    }
}

/// One untraced repetition.
pub struct Rep {
    /// The simulation's output.
    pub out: SimOutput,
    /// Host seconds in `ClusterSim::run_with`.
    pub run_s: f64,
    /// Host seconds in `assemble_requests` (0 without assembly).
    pub assembly_s: f64,
    /// Requests assembled (0 without assembly).
    pub requests: usize,
}

impl Rep {
    /// Host seconds of the whole repetition.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.run_s + self.assembly_s
    }
}

/// Runs one repetition: `run_with`, then assembly on `sim_paper`.
///
/// # Errors
///
/// The simulator's error, as text.
pub fn rep(w: SimWorkload, cfg: &SimConfig, scratch: &mut SimScratch) -> Result<Rep, String> {
    let t0 = Instant::now();
    let out = ClusterSim::run_with(cfg, scratch).map_err(|e| e.to_string())?;
    let run_s = t0.elapsed().as_secs_f64();
    let (assembly_s, requests) = if w == SimWorkload::Paper {
        let requests = (out.total_keys() as f64 * REQUESTS_PER_KEY).round() as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ ASSEMBLY_STREAM);
        let t1 = Instant::now();
        let stats = assemble_requests(&out, KEYS_PER_REQUEST, requests, &mut rng);
        std::hint::black_box(&stats);
        (t1.elapsed().as_secs_f64(), requests)
    } else {
        (0.0, 0)
    };
    Ok(Rep {
        out,
        run_s,
        assembly_s,
        requests,
    })
}

/// FNV-1a fingerprint over the fields `memlat-bench --digest` hashes:
/// key count, miss ratio, per-server utilizations and per-server latency
/// moments.
#[must_use]
pub fn digest(out: &SimOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut push = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01B3);
        }
    };
    push(out.total_keys());
    push(out.miss_ratio().to_bits());
    for &u in out.utilization() {
        push(u.to_bits());
    }
    for s in out.summaries() {
        let l = &s.latency;
        push(l.count());
        push(l.mean().to_bits());
        push(l.sample_variance().to_bits());
        push(l.min().to_bits());
        push(l.max().to_bits());
    }
    h
}

/// The workload's correctness check on one output; `Err` names the
/// failed property.
///
/// # Errors
///
/// A message describing the violated property.
pub fn check_output(w: SimWorkload, cfg: &SimConfig, out: &SimOutput) -> Result<String, String> {
    let p = &cfg.params;
    match w {
        SimWorkload::Paper => {
            let est = p.estimate().map_err(|e| e.to_string())?;
            let ts = out.expected_server_latency(KEYS_PER_REQUEST);
            let (lo, hi) = (
                est.server.lower * (1.0 - THEOREM1_TOLERANCE),
                est.server.upper * (1.0 + THEOREM1_TOLERANCE),
            );
            if !(lo..=hi).contains(&ts) {
                return Err(format!(
                    "E[T_S(150)] = {:.1} us outside the Theorem-1 band [{:.1}, {:.1}] us",
                    ts * 1e6,
                    lo * 1e6,
                    hi * 1e6
                ));
            }
            let r = out.miss_ratio();
            if (r - p.miss_ratio()).abs() > 0.0015 {
                return Err(format!("miss ratio {r:.5} is not ~{}", p.miss_ratio()));
            }
            Ok(format!(
                "E[T_S(150)] {:.1} us in [{:.1}, {:.1}] us; miss ratio {r:.5}",
                ts * 1e6,
                lo * 1e6,
                hi * 1e6
            ))
        }
        SimWorkload::LruRing => {
            let MissMode::CacheBacked(cc) = &cfg.miss_mode else {
                return Err("sim_lru_ring must be cache-backed".into());
            };
            let che = che_miss_ratio(cc.keyspace, cc.skew, out.cached_items() as f64)
                .map_err(|e| e.to_string())?;
            let r = out.miss_ratio();
            let rel = (r - che).abs() / che;
            if rel > memlat_conformance::EMERGENT_R_MARGIN {
                return Err(format!(
                    "emergent miss ratio {r:.5} vs Che {che:.5}: rel err {rel:.3} > {}",
                    memlat_conformance::EMERGENT_R_MARGIN
                ));
            }
            Ok(format!(
                "emergent miss ratio {r:.5} vs Che {che:.5} (rel err {rel:.3})"
            ))
        }
        SimWorkload::M10k => {
            let expected = p.total_key_rate() * cfg.duration;
            let keys = out.total_keys() as f64;
            if (keys / expected - 1.0).abs() > 0.02 {
                return Err(format!("{keys} keys, expected ~{expected:.0}"));
            }
            let util = out.utilization().iter().sum::<f64>() / out.utilization().len() as f64;
            let rho = p.total_key_rate() / p.servers() as f64 / p.service_rate();
            if (util / rho - 1.0).abs() > 0.03 {
                return Err(format!("mean utilization {util:.4}, expected ~{rho:.4}"));
            }
            Ok(format!(
                "{keys} keys vs {expected:.0} expected; utilization {util:.4} vs {rho:.4}"
            ))
        }
    }
}

/// Exact simulated latencies of a configuration, µs: the p50 and p99 of
/// every key's server latency (the get), then of every missed key's
/// database latency (the fill that precedes the look-aside set).
/// Computed from a `Retention::Full` run of the same configuration,
/// whose summaries are bit-identical to the measured run's (returned
/// with the latencies as its [`digest`]); the streaming sketch's bins
/// would round the quantiles to ~2% steps.
///
/// # Errors
///
/// The simulator's error, as text.
pub fn simulated_latency_us(cfg: &SimConfig) -> Result<(u64, [f64; 4]), String> {
    let full = cfg.clone().retention(Retention::Full);
    let out = ClusterSim::run(&full).map_err(|e| e.to_string())?;
    let (mut s, mut d) = (Vec::new(), Vec::new());
    for j in 0..out.summaries().len() {
        let cols = out.records(j);
        s.extend_from_slice(cols.s());
        d.extend(cols.d().iter().copied().filter(|&x| x > 0.0));
    }
    let q = |xs: &mut Vec<f32>, p: f64| -> f64 {
        if xs.is_empty() {
            return f64::NAN;
        }
        let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
        let (_, x, _) = xs.select_nth_unstable_by(rank - 1, f32::total_cmp);
        f64::from(*x) * 1e6
    };
    let quantiles = [
        q(&mut s, 0.50),
        q(&mut s, 0.99),
        q(&mut d, 0.50),
        q(&mut d, 0.99),
    ];
    Ok((digest(&out), quantiles))
}

/// End-to-end metrics from the timed repetitions' relative times (host
/// time over the neighbouring reference runs, see [`crate::reference`]),
/// the last output, and the exact simulated latencies. Throughput is
/// keys per second at the reference's nominal speed.
#[must_use]
pub fn end_to_end(
    relative: &[f64],
    out: &SimOutput,
    setup_s: f64,
    rss_mb: f64,
    latency_us: [f64; 4],
) -> Vec<Metric> {
    let rate = out.total_keys() as f64 / (median(relative) * crate::reference::NOMINAL_S);
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("keys_per_s", rate, "1/s"),
        Metric::new("ops_per_s", rate, "1/s"),
        Metric::new("peak_rss_mb", rss_mb, "MiB"),
        Metric::new("get_p50_us", latency_us[0], "us"),
        Metric::new("get_p99_us", latency_us[1], "us"),
        Metric::new("set_p50_us", latency_us[2], "us"),
        Metric::new("set_p99_us", latency_us[3], "us"),
        Metric::new("hit_ratio", 1.0 - out.miss_ratio(), "ratio"),
    ]
}

/// The Zipf popularity and routing table a configuration needs, built
/// with one span each.
struct Population {
    zipf: Option<Arc<ZipfPopularity>>,
    ring: Option<Arc<RoutedKeyspace>>,
}

fn build_population(cfg: &SimConfig, tracer: &mut Tracer) -> Result<Population, String> {
    let MissMode::CacheBacked(cc) = &cfg.miss_mode else {
        return Ok(Population {
            zipf: None,
            ring: None,
        });
    };
    let zipf = tracer
        .time("workload.setup.zipf_build", None, || {
            ZipfPopularity::new(cc.keyspace, cc.skew)
        })
        .map_err(|e| e.to_string())?;
    let zipf = Arc::new(zipf);
    let ring = match cc.routing {
        CacheRouting::Independent => None,
        CacheRouting::ConsistentHash { vnodes } => {
            let servers = cfg.params.servers();
            let ring = tracer
                .time("workload.setup.ring_build", None, || {
                    RoutedKeyspace::new(&zipf, servers, vnodes)
                })
                .map_err(|e| e.to_string())?;
            Some(Arc::new(ring))
        }
    };
    Ok(Population {
        zipf: Some(zipf),
        ring,
    })
}

/// Per-server parameters exactly as `ClusterSim::run_with` derives them.
fn server_params<'a>(
    cfg: &'a SimConfig,
    pop: &Population,
    shares: &[f64],
    j: usize,
) -> Result<ServerSimParams<'a>, String> {
    let p = &cfg.params;
    let q = p.concurrency();
    let lam_j = shares[j] * p.total_key_rate();
    let gaps = p
        .arrival()
        .gap_law((1.0 - q) * lam_j)
        .map_err(|e| e.to_string())?;
    Ok(ServerSimParams {
        interarrival: gaps,
        concurrency: q,
        service_rate: p.service_rate(),
        miss_ratio: p.miss_ratio(),
        miss_mode: &cfg.miss_mode,
        popularity: pop.zipf.clone(),
        routed: pop.ring.as_ref().map(|ks| RoutedHandle {
            keyspace: Arc::clone(ks),
            server: j,
        }),
        warmup: cfg.warmup,
        duration: cfg.duration,
        faults: cfg.fault_plan.for_server(j),
        client: cfg.client,
        block: cfg.effective_block(),
    })
}

fn shares(cfg: &SimConfig, pop: &Population) -> Result<Vec<f64>, String> {
    match &pop.ring {
        Some(ring) => Ok(ring.shares().to_vec()),
        None => cfg
            .params
            .load()
            .shares(cfg.params.servers())
            .map_err(|e| e.to_string()),
    }
}

/// The re-drive's sink: what `run_with`'s per-server fold does (Welford
/// statistics, quantile sketch, miss stream, per-key columns under
/// `Retention::Full`), with a `stats.sink` span around each push into
/// the statistics. Scalar-path keys are buffered and pushed a chunk at a
/// time, so the clock is read once per chunk rather than once per key.
struct TracedSink<'a> {
    tracer: &'a mut Tracer,
    parent: SpanId,
    server: u32,
    idx: u32,
    latency: StreamingStats,
    sketch: QuantileSketch,
    misses: Vec<MissArrival>,
    cols: Option<&'a mut KeyColumns>,
    pending: Vec<f64>,
}

impl TracedSink<'_> {
    fn push_stats(&mut self, xs: &[f64]) {
        let start = self.tracer.now_ns();
        self.latency.push_slice(xs);
        self.sketch.push_slice(xs);
        if let Some(cols) = self.cols.as_deref_mut() {
            cols.extend_server(xs);
        }
        let end = self.tracer.now_ns();
        self.tracer
            .record("stats.sink", Some(self.parent), start, end);
    }

    fn flush(&mut self) {
        if !self.pending.is_empty() {
            let xs = std::mem::take(&mut self.pending);
            self.push_stats(&xs);
            self.pending = xs;
            self.pending.clear();
        }
    }
}

impl RecordSink for TracedSink<'_> {
    fn record(&mut self, r: &KeyRecord) {
        if r.missed || r.forced {
            self.misses.push(MissArrival {
                time: r.completion,
                origin: (self.server, self.idx),
                key: if r.forced { NO_KEY } else { r.key },
            });
        }
        self.idx += 1;
        self.pending.push(r.server_latency);
        if self.pending.len() == CHUNK {
            self.flush();
        }
    }

    fn record_block(&mut self, b: &KeyBlock<'_>) {
        for (i, &missed) in b.missed.iter().enumerate() {
            if missed {
                self.misses.push(MissArrival {
                    time: b.completion[i],
                    origin: (self.server, self.idx + i as u32),
                    key: NO_KEY,
                });
            }
        }
        self.idx += b.len() as u32;
        self.push_stats(b.latency);
    }
}

/// What one traced repetition measured, in ns unless named otherwise.
#[derive(Debug, Default, Clone)]
struct TracedRep {
    keys: u64,
    misses: u64,
    delayed: u64,
    requests: usize,
    untraced_run_ns: f64,
    untraced_total_ns: f64,
    traced_total_ns: f64,
    server_ns: f64,
    server_self_ns: f64,
    sink_ns: f64,
    merge_ns: f64,
    db_ns: f64,
    assembly_ns: f64,
    arrivals_ns: f64,
    service_ns: f64,
    lindley_ns: f64,
    miss_ns: f64,
    replay_keys: u64,
    routing_ns: f64,
    routed_keys: u64,
    store_get_ns: f64,
    store_gets: u64,
    store_set_ns: f64,
    store_sets: u64,
    store_evictions: u64,
}

/// Re-drives every server through `simulate_server_streaming_with`,
/// then merges the miss shards, runs the database stage and (on
/// `sim_paper`) assembly on the untraced output. Checks that every
/// server's key count — and the database stage's latency moments —
/// equal the untraced run's.
fn redrive(
    w: SimWorkload,
    cfg: &SimConfig,
    pop: &Population,
    untraced: &Rep,
    tracer: &mut Tracer,
    run: u32,
) -> Result<TracedRep, String> {
    let shares = shares(cfg, pop)?;
    let keep_cols = cfg.retention == Retention::Full;
    let mut block = BlockScratch::new();
    let mut cols = KeyColumns::new();
    let mut all_misses: Vec<MissArrival> = Vec::new();
    let mut keys = 0u64;
    let root = tracer.open("sim.traced_rep", None);
    for j in 0..shares.len() {
        if shares[j] <= 0.0 {
            continue;
        }
        let params = server_params(cfg, pop, &shares, j)?;
        let mut rng = stream_rng(cfg.seed, 1000 + j as u64);
        cols.clear();
        let span = tracer.open("cluster.server", Some(root));
        let mut sink = TracedSink {
            tracer: &mut *tracer,
            parent: span,
            server: j as u32,
            idx: 0,
            latency: StreamingStats::new(),
            sketch: QuantileSketch::new(),
            misses: Vec::new(),
            cols: keep_cols.then_some(&mut cols),
            pending: Vec::with_capacity(CHUNK),
        };
        let stats = simulate_server_streaming_with(params, &mut rng, &mut block, &mut sink)
            .map_err(|e| e.to_string())?;
        sink.flush();
        let mut misses = std::mem::take(&mut sink.misses);
        std::hint::black_box((&sink.latency, &sink.sketch));
        tracer.close(span);
        let want = untraced.out.summary(j).counters.jobs;
        if stats.counters.jobs != want {
            return Err(format!(
                "server {j}: re-drive recorded {} keys, run_with {want}",
                stats.counters.jobs
            ));
        }
        keys += stats.counters.jobs;
        all_misses.append(&mut misses);
    }
    // A stable sort of the shards, concatenated in server order, by
    // (time, server) gives the order of run_with's per-shard sort and
    // k-way merge.
    let merge = tracer.open("cluster.sim.merge", Some(root));
    all_misses.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.origin.0.cmp(&b.origin.0)));
    tracer.close(merge);

    let p = &cfg.params;
    let mut db_rng = stream_rng(cfg.seed, 2_000_000);
    let mut db_latency = StreamingStats::new();
    let mut db_sketch = QuantileSketch::new();
    let mut delayed = 0u64;
    let db = tracer.open("cluster.database", Some(root));
    match cfg.miss_relay {
        MissRelay::Independent => run_db_stage_with(
            &all_misses,
            cfg.effective_db_shards(),
            p.db_service_rate(),
            &mut db_rng,
            |_, d| {
                db_latency.push(d);
                db_sketch.push(d);
            },
        ),
        MissRelay::Coalesced => run_db_stage_coalesced_with(
            &all_misses,
            cfg.effective_db_shards(),
            p.db_service_rate(),
            &mut db_rng,
            |_, d, is_delayed| {
                db_latency.push(d);
                db_sketch.push(d);
                delayed += u64::from(is_delayed);
            },
        ),
    }
    tracer.close(db);
    std::hint::black_box(&db_sketch);
    let want = untraced.out.db_latency_stats();
    if db_latency.count() != want.count() || db_latency.mean().to_bits() != want.mean().to_bits() {
        return Err(format!(
            "database stage: re-drive {} misses (mean {}), run_with {} (mean {})",
            db_latency.count(),
            db_latency.mean(),
            want.count(),
            want.mean()
        ));
    }

    let mut requests = 0;
    if w == SimWorkload::Paper {
        requests = untraced.requests;
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ ASSEMBLY_STREAM);
        let span = tracer.open("cluster.assembly", Some(root));
        let stats = assemble_requests(&untraced.out, KEYS_PER_REQUEST, requests, &mut rng);
        tracer.close(span);
        std::hint::black_box(&stats);
    }
    tracer.close(root);

    let ns = |name: &str| tracer.total_ns(name, run) as f64;
    Ok(TracedRep {
        keys,
        misses: all_misses.len() as u64,
        delayed,
        requests,
        untraced_run_ns: untraced.run_s * 1e9,
        untraced_total_ns: untraced.total_s() * 1e9,
        traced_total_ns: ns("sim.traced_rep"),
        server_ns: ns("cluster.server"),
        server_self_ns: tracer.self_total_ns("cluster.server", run) as f64,
        sink_ns: ns("stats.sink"),
        merge_ns: ns("cluster.sim.merge"),
        db_ns: ns("cluster.database"),
        assembly_ns: ns("cluster.assembly"),
        ..TracedRep::default()
    })
}

/// Replays each server's hot-path layers one call at a time on the
/// workload's own law, rates and block size: block-path workloads
/// through `fill_block_speculative`, `exp_from_bits`, the fixed-ratio
/// miss lane and `submit_block`; the LRU ring through the scalar
/// arrival, service, Lindley and `MissState::decide` calls, then its
/// routing and store on a sampled key stream. Adds the layer times to
/// `rep`. On the block path the replay draws in the simulator's order,
/// so each server's measured key count must equal `untraced`'s.
fn replay_layers(
    cfg: &SimConfig,
    pop: &Population,
    untraced: &Rep,
    tracer: &mut Tracer,
    rep: &mut TracedRep,
) -> Result<(), String> {
    let shares = shares(cfg, pop)?;
    let root = tracer.open("replay", None);
    let mut bufs = BlockBufs::default();
    for j in 0..shares.len() {
        if shares[j] <= 0.0 {
            continue;
        }
        let params = server_params(cfg, pop, &shares, j)?;
        let mut rng = stream_rng(cfg.seed, 1000 + j as u64);
        if let Some(r) = block_path_ratio(&params) {
            let replayed = replay_block_server(&params, r, &mut rng, &mut bufs, tracer, root, rep)?;
            let want = untraced.out.summary(j).counters.jobs;
            if replayed != want {
                return Err(format!(
                    "server {j}: layer replay measured {replayed} keys, run_with {want}"
                ));
            }
        } else {
            replay_scalar_server(&params, &mut rng, tracer, root, rep)?;
            replay_routing_and_store(cfg, pop, j, tracer, root, rep)?;
        }
    }
    tracer.close(root);
    Ok(())
}

/// The fixed miss ratio when `simulate_server_streaming_with` takes its
/// block path for `p` (its eligibility rule), `None` for the scalar path.
fn block_path_ratio(p: &ServerSimParams<'_>) -> Option<f64> {
    let eligible = p.block > 1 && p.faults.is_empty() && p.client.timeout.is_none();
    match p.miss_mode {
        MissMode::FixedRatio if eligible => Some(p.miss_ratio),
        _ => None,
    }
}

/// The block replay's buffers, reused across servers as the simulator
/// reuses its block scratch, so no span times their growth.
#[derive(Default)]
struct BlockBufs {
    lanes: ArrivalScratch,
    arrival: Vec<f64>,
    svc_bits: Vec<u64>,
    miss_bits: Vec<u64>,
    service: Vec<f64>,
    depart: Vec<f64>,
    missed: Vec<bool>,
}

/// Replays server `p`'s block path layer by layer. Returns the measured
/// keys replayed: the untraced run's count when the replay draws in the
/// simulator's order.
fn replay_block_server(
    p: &ServerSimParams<'_>,
    miss_ratio: f64,
    rng: &mut rand::rngs::StdRng,
    bufs: &mut BlockBufs,
    tracer: &mut Tracer,
    parent: SpanId,
    rep: &mut TracedRep,
) -> Result<u64, String> {
    let mut arrivals =
        BatchArrivals::new(p.interarrival.clone(), p.concurrency).map_err(|e| e.to_string())?;
    let mut station = FcfsStation::new();
    let horizon = p.warmup + p.duration;
    let BlockBufs {
        lanes,
        arrival,
        svc_bits,
        miss_bits,
        service,
        depart,
        missed,
    } = bufs;
    // Warm-up keys take the scalar path, as in the simulator: one
    // service draw per key, `submit` per key, no miss decision. They are
    // replayed a block at a time under the same spans, so that the
    // server span's self time holds no kernel work.
    let mut pending = None;
    while pending.is_none() {
        arrival.clear();
        svc_bits.clear();
        let t0 = tracer.now_ns();
        while arrival.len() < p.block {
            let (t, batch) = arrivals.next_batch_with(&mut *rng);
            if t >= p.warmup {
                pending = Some((t, batch));
                break;
            }
            for _ in 0..batch {
                arrival.push(t);
                svc_bits.push(rng.next_u64());
            }
        }
        let t1 = tracer.now_ns();
        service.clear();
        service.extend(svc_bits.iter().map(|&b| {
            -memlat_dist::simd::dln(memlat_dist::open_unit_from_bits(b)) / p.service_rate
        }));
        let t2 = tracer.now_ns();
        for (&a, &x) in arrival.iter().zip(service.iter()) {
            std::hint::black_box(station.submit(a, x));
        }
        let t3 = tracer.now_ns();
        tracer.record("workload.arrivals", Some(parent), t0, t1);
        tracer.record("distributions.service", Some(parent), t1, t2);
        tracer.record("des.lindley", Some(parent), t2, t3);
        rep.arrivals_ns += (t1 - t0) as f64;
        rep.service_ns += (t2 - t1) as f64;
        rep.lindley_ns += (t3 - t2) as f64;
    }
    if pending.is_some_and(|(t, _)| t >= horizon) {
        return Ok(0);
    }
    // The miss uniform is drawn only when r > 0, as in the simulator.
    let draw_miss = miss_ratio > 0.0;
    let mut measured = 0u64;
    let mut done = false;
    while !done {
        arrival.clear();
        svc_bits.clear();
        miss_bits.clear();
        let t0 = tracer.now_ns();
        if let Some((t, batch)) = pending.take() {
            for _ in 0..batch {
                arrival.push(t);
                svc_bits.push(rng.next_u64());
                if draw_miss {
                    miss_bits.push(rng.next_u64());
                }
            }
        }
        if arrival.len() < p.block {
            done = arrivals.fill_block_speculative(
                &mut *rng,
                horizon,
                p.block - arrival.len(),
                1 + usize::from(draw_miss),
                lanes,
                |batch, rng| {
                    for _ in 0..batch {
                        svc_bits.push(rng.next_u64());
                        if draw_miss {
                            miss_bits.push(rng.next_u64());
                        }
                    }
                },
            );
            for (&t, &b) in lanes.times().iter().zip(lanes.sizes()) {
                arrival.extend(std::iter::repeat_n(t, b as usize));
            }
            if done {
                svc_bits.truncate(arrival.len());
                miss_bits.truncate(if draw_miss { arrival.len() } else { 0 });
            }
        }
        let n = arrival.len();
        if n == 0 {
            break;
        }
        let t1 = tracer.now_ns();
        tracer.record("workload.arrivals", Some(parent), t0, t1);
        service.clear();
        memlat_dist::simd::exp_from_bits(svc_bits, p.service_rate, service);
        let t2 = tracer.now_ns();
        tracer.record("distributions.service", Some(parent), t1, t2);
        depart.clear();
        depart.resize(n, 0.0);
        station.submit_block(arrival, service, depart);
        let t3 = tracer.now_ns();
        tracer.record("des.lindley", Some(parent), t2, t3);
        missed.clear();
        missed.extend(
            miss_bits
                .iter()
                .map(|&b| memlat_dist::open_unit_from_bits(b) < miss_ratio),
        );
        let t4 = tracer.now_ns();
        tracer.record("cluster.miss", Some(parent), t3, t4);
        std::hint::black_box((&depart, &missed));
        rep.arrivals_ns += (t1 - t0) as f64;
        rep.service_ns += (t2 - t1) as f64;
        rep.lindley_ns += (t3 - t2) as f64;
        rep.miss_ns += (t4 - t3) as f64;
        rep.replay_keys += n as u64;
        measured += n as u64;
    }
    Ok(measured)
}

fn replay_scalar_server(
    p: &ServerSimParams<'_>,
    rng: &mut rand::rngs::StdRng,
    tracer: &mut Tracer,
    parent: SpanId,
    rep: &mut TracedRep,
) -> Result<(), String> {
    let mut arrivals =
        BatchArrivals::new(p.interarrival.clone(), p.concurrency).map_err(|e| e.to_string())?;
    let mut decider = build_miss_state(
        p.miss_mode,
        p.miss_ratio,
        p.popularity.as_ref(),
        p.routed.as_ref(),
    )
    .map_err(|e| e.to_string())?;
    let mut station = FcfsStation::new();
    let horizon = p.warmup + p.duration;
    let (mut arrival, mut service, mut depart) = (Vec::new(), Vec::new(), Vec::new());
    let mut carry = None;
    let mut done = false;
    while !done {
        arrival.clear();
        service.clear();
        depart.clear();
        let t0 = tracer.now_ns();
        if let Some((t, b)) = carry.take() {
            arrival.extend(std::iter::repeat_n(t, b as usize));
        }
        while arrival.len() < CHUNK {
            let (t, b) = arrivals.next_batch_with(&mut *rng);
            if t >= horizon {
                done = true;
                break;
            }
            if arrival.len() + b as usize > CHUNK && !arrival.is_empty() {
                carry = Some((t, b));
                break;
            }
            arrival.extend(std::iter::repeat_n(t, b as usize));
        }
        let t1 = tracer.now_ns();
        service.extend(
            arrival
                .iter()
                .map(|_| exp_sample(p.service_rate, &mut *rng)),
        );
        let t2 = tracer.now_ns();
        depart.extend(
            arrival
                .iter()
                .zip(&service)
                .map(|(&a, &s)| station.submit(a, s).departure),
        );
        let t3 = tracer.now_ns();
        let misses: u64 = depart
            .iter()
            .map(|&d| u64::from(decider.decide(d, &mut *rng).0))
            .sum();
        let t4 = tracer.now_ns();
        std::hint::black_box(misses);
        tracer.record("workload.arrivals", Some(parent), t0, t1);
        tracer.record("distributions.service", Some(parent), t1, t2);
        tracer.record("des.lindley", Some(parent), t2, t3);
        tracer.record("cluster.miss", Some(parent), t3, t4);
        rep.arrivals_ns += (t1 - t0) as f64;
        rep.service_ns += (t2 - t1) as f64;
        rep.lindley_ns += (t3 - t2) as f64;
        rep.miss_ns += (t4 - t3) as f64;
        rep.replay_keys += arrival.len() as u64;
    }
    Ok(())
}

/// Samples server `j`'s key stream through the ring, then replays it
/// through a fresh slab/LRU store of the workload's size: a `get` per
/// key and, on a miss, a `set` with a size from the value law.
fn replay_routing_and_store(
    cfg: &SimConfig,
    pop: &Population,
    j: usize,
    tracer: &mut Tracer,
    parent: SpanId,
    rep: &mut TracedRep,
) -> Result<(), String> {
    let (MissMode::CacheBacked(cc), Some(ring)) = (&cfg.miss_mode, &pop.ring) else {
        return Ok(());
    };
    let p = &cfg.params;
    let keys_n = (ring.shares()[j] * p.total_key_rate() * (cfg.warmup + cfg.duration)) as usize;
    let mut rng = stream_rng(cfg.seed, 4_000_000 + j as u64);
    let mut keys = Vec::with_capacity(keys_n);
    while keys.len() < keys_n {
        let n = CHUNK.min(keys_n - keys.len());
        let t0 = tracer.now_ns();
        for _ in 0..n {
            keys.push(ring.sample_key(j, &mut rng));
        }
        let t1 = tracer.now_ns();
        tracer.record("workload.routing", Some(parent), t0, t1);
        rep.routing_ns += (t1 - t0) as f64;
    }
    rep.routed_keys += keys.len() as u64;

    let mut store =
        Store::new(StoreConfig::with_memory(cc.memory_bytes)).map_err(|e| e.to_string())?;
    let sizes =
        GeneralizedPareto::with_mean(0.35, cc.mean_value_bytes).map_err(|e| e.to_string())?;
    let overhead = crate::trace::clock_overhead_ns();
    let span = tracer.open("cache.store", Some(parent));
    for (i, &k) in keys.iter().enumerate() {
        let now = i as f64 * 1e-6;
        let t0 = Instant::now();
        let hit = store.get(k, now).is_hit();
        rep.store_get_ns += (t0.elapsed().as_nanos() as f64 - overhead).max(0.0);
        rep.store_gets += 1;
        if !hit {
            let size = sizes.sample_with(&mut rng).max(1.0) as usize;
            let t1 = Instant::now();
            let _ = store.set(k, size, None, now);
            rep.store_set_ns += (t1.elapsed().as_nanos() as f64 - overhead).max(0.0);
            rep.store_sets += 1;
        }
    }
    tracer.close(span);
    rep.store_evictions += store.stats().evictions;
    Ok(())
}

/// The traced run: rounds of (untraced repetition, traced re-drive,
/// layer replay) for `seconds`, at least [`MIN_ROUNDS`] and at most
/// [`MAX_ROUNDS`]. Returns the per-layer metrics (medians over rounds),
/// one note per round, and the number of rounds.
///
/// # Errors
///
/// A simulator error or a failed re-drive check.
pub fn traced(
    w: SimWorkload,
    cfg: &SimConfig,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Vec<Metric>, Vec<String>, u32), String> {
    let pop = build_population(cfg, tracer)?;
    let zipf_s = tracer.total_ns("workload.setup.zipf_build", 0) as f64 * 1e-9;
    let ring_s = tracer.total_ns("workload.setup.ring_build", 0) as f64 * 1e-9;
    let mut scratch = SimScratch::new();
    // Cold repetition: fills the scratch, as the untraced run's setup does.
    rep(w, cfg, &mut scratch)?;
    let mut reps = Vec::new();
    let mut notes = Vec::new();
    let (mut cpu, mut wait, mut wall) = (0u64, 0u64, 0.0);
    let (mut stolen, mut ticks) = (0u64, 0u64);
    let start = Instant::now();
    let mut run = 0;
    while run < MIN_ROUNDS || (run < MAX_ROUNDS && start.elapsed().as_secs_f64() < seconds) {
        run += 1;
        tracer.set_run(run);
        let before = crate::procfs::thread_self().map_err(|e| e.to_string())?;
        let t0 = crate::procfs::cpu_ticks().map_err(|e| e.to_string())?;
        let untraced = rep(w, cfg, &mut scratch)?;
        let t1 = crate::procfs::cpu_ticks().map_err(|e| e.to_string())?;
        let after = crate::procfs::thread_self().map_err(|e| e.to_string())?;
        stolen += t1.0.saturating_sub(t0.0);
        ticks += t1.1.saturating_sub(t0.1);
        let d = after.since(before);
        cpu += d.cpu_ns;
        wait += d.wait_ns;
        wall += untraced.total_s();
        let mut r = redrive(w, cfg, &pop, &untraced, tracer, run)?;
        replay_layers(cfg, &pop, &untraced, tracer, &mut r)?;
        let path = r.server_ns + r.db_ns + r.assembly_ns;
        notes.push(format!(
            "round {run}: untraced {:.1} ms, traced {:.1} ms; blocking path {:.1} ms \
             (server {:.1} + database {:.1} + assembly {:.1}) = {:.1}% of untraced, \
             residual cluster.sim.residual {:.1} ms",
            r.untraced_total_ns * 1e-6,
            r.traced_total_ns * 1e-6,
            path * 1e-6,
            r.server_ns * 1e-6,
            r.db_ns * 1e-6,
            r.assembly_ns * 1e-6,
            100.0 * path / r.untraced_total_ns,
            (r.untraced_total_ns - path) * 1e-6,
        ));
        reps.push(r);
    }

    let med = |f: &dyn Fn(&TracedRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let keys = |r: &TracedRep| r.keys as f64;
    let kernels = |r: &TracedRep| r.arrivals_ns + r.service_ns + r.lindley_ns + r.miss_ns;
    let coverage = med(&|r| (r.server_ns + r.db_ns + r.assembly_ns) / r.untraced_total_ns);
    notes.push(format!(
        "blocking path: server + database + assembly spans = {:.1}% of untraced host time \
         (median over {} rounds; {} the 10% band); the rest is cluster.sim.residual",
        100.0 * coverage,
        reps.len(),
        if (coverage - 1.0).abs() <= 0.10 {
            "inside"
        } else {
            "outside"
        },
    ));
    let metrics = vec![
        Metric::new(
            "workload.arrivals.ns_per_key",
            med(&|r| per(r.arrivals_ns, keys(r))),
            "ns",
        ),
        Metric::new(
            "distributions.service.ns_per_key",
            med(&|r| per(r.service_ns, keys(r))),
            "ns",
        ),
        Metric::new(
            "des.lindley.ns_per_key",
            med(&|r| per(r.lindley_ns, keys(r))),
            "ns",
        ),
        Metric::new(
            "stats.sink.ns_per_key",
            med(&|r| per(r.sink_ns, keys(r))),
            "ns",
        ),
        Metric::new(
            "cluster.server.ns_per_key",
            med(&|r| per(r.server_ns, keys(r))),
            "ns",
        ),
        Metric::new(
            "cluster.server.self_ns_per_key",
            med(&|r| per(r.server_self_ns, keys(r)) - per(kernels(r), keys(r))),
            "ns",
        ),
        Metric::new(
            "cluster.miss.ns_per_key",
            med(&|r| per(r.miss_ns, keys(r))),
            "ns",
        ),
        Metric::new(
            "workload.routing.ns_per_key",
            med(&|r| per(r.routing_ns, r.routed_keys as f64)),
            "ns",
        ),
        Metric::new(
            "cache.store.get_ns",
            med(&|r| per(r.store_get_ns, r.store_gets as f64)),
            "ns",
        ),
        Metric::new(
            "cache.store.set_ns",
            med(&|r| per(r.store_set_ns, r.store_sets as f64)),
            "ns",
        ),
        Metric::new(
            "cache.store.evictions_per_set",
            med(&|r| per(r.store_evictions as f64, r.store_sets as f64)),
            "ratio",
        ),
        Metric::new("workload.setup.zipf_build_s", zipf_s, "s"),
        Metric::new("workload.setup.ring_build_s", ring_s, "s"),
        Metric::new(
            "cluster.database.ns_per_miss",
            med(&|r| per(r.db_ns, r.misses as f64)),
            "ns",
        ),
        Metric::new(
            "cluster.database.delayed_hit_frac",
            med(&|r| per(r.delayed as f64, r.misses as f64)),
            "ratio",
        ),
        Metric::new(
            "cluster.assembly.ns_per_request",
            med(&|r| per(r.assembly_ns, r.requests as f64)),
            "ns",
        ),
        Metric::new(
            "cluster.sim.residual_ns_per_key",
            med(&|r| per(r.untraced_run_ns - r.server_ns - r.db_ns, keys(r))),
            "ns",
        ),
        Metric::new(
            "cluster.sim.merge_ns_per_key",
            med(&|r| per(r.merge_ns, keys(r))),
            "ns",
        ),
        Metric::new("trace.path_coverage", coverage, "ratio"),
        Metric::new(
            "trace.overhead_frac",
            med(&|r| r.traced_total_ns / r.untraced_total_ns - 1.0),
            "ratio",
        ),
        Metric::new("sim.cpu_frac", per(cpu as f64 * 1e-9, wall), "ratio"),
        Metric::new("sim.runq_wait_frac", per(wait as f64 * 1e-9, wall), "ratio"),
        Metric::new("host.steal_frac", per(stolen as f64, ticks as f64), "ratio"),
    ];
    Ok((metrics, notes, reps.len() as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced re-drive reproduces `run_with`'s per-server key counts
    /// and database-stage moments on a short configuration of each
    /// simulator workload (`redrive` returns `Err` otherwise).
    #[test]
    fn redrive_reproduces_run_with_on_short_configs() {
        for (w, scale) in [
            (SimWorkload::Paper, 0.02),
            (SimWorkload::LruRing, 0.05),
            (SimWorkload::M10k, 0.05),
        ] {
            let cfg = w.config(7, scale);
            let mut tracer = Tracer::new();
            let pop = build_population(&cfg, &mut tracer).unwrap();
            let untraced = rep(w, &cfg, &mut SimScratch::new()).unwrap();
            let r = redrive(w, &cfg, &pop, &untraced, &mut tracer, 0)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(r.keys, untraced.out.total_keys(), "{}", w.name());
            assert!(r.server_ns > 0.0 && r.sink_ns > 0.0, "{}", w.name());
            assert!(r.sink_ns <= r.server_ns, "{}", w.name());
            let mut r2 = r.clone();
            replay_layers(&cfg, &pop, &untraced, &mut tracer, &mut r2)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(r2.replay_keys > 0 && r2.arrivals_ns > 0.0, "{}", w.name());
            if w == SimWorkload::LruRing {
                assert!(r2.store_sets > 0 && r2.routed_keys > 0);
            }
        }
    }

    #[test]
    fn digest_is_stable_across_repetitions() {
        let w = SimWorkload::M10k;
        let cfg = w.config(3, 0.05);
        let mut scratch = SimScratch::new();
        let a = digest(&rep(w, &cfg, &mut scratch).unwrap().out);
        let b = digest(&rep(w, &cfg, &mut scratch).unwrap().out);
        assert_eq!(a, b);
        let other = digest(&rep(w, &w.config(4, 0.05), &mut scratch).unwrap().out);
        assert_ne!(a, other);
    }
}
