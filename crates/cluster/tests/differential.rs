//! The cluster simulator's differential harness: every configuration in
//! the table reruns under every applicable [`Variant`], and each rerun
//! must reproduce the reference run's [`Fingerprint`] bit for bit.
//!
//! The reference is the scalar path on one thread (`threads(1).block(1)`):
//! one service draw, one FCFS submit, one miss decision per key. The
//! variants change only how the run executes — thread count, sampling
//! block, retention, the miss relay where coalescing cannot fire, SIMD
//! dispatch — or rebuild it from the public primitives (the
//! materialize-then-fold pipeline the streaming hot path replaced). None
//! may move a bit of what the run reports. Three rows also pin their
//! reference to fingerprints captured from earlier simulators; every
//! pinned value is a function of the fingerprint, so each variant of
//! those rows reproduces the golden too.
//!
//! Below the table: the per-server lane tables (the block lanes against
//! the scalar attempt path, RNG stream position included) and two
//! divergence checks proving the coalescing relay and consistent-hash
//! routing are live, not vacuously equal.

use std::sync::{Arc, Mutex};

use memlat_cluster::database::{run_db_stage_with, MissArrival};
use memlat_cluster::fault::ServerFaults;
use memlat_cluster::server::{
    simulate_server_streaming_with, BlockScratch, KeyRecord, ServerRunStats, ServerSimParams,
};
use memlat_cluster::{
    CacheBackedConfig, CacheRouting, ClientPolicy, ClusterSim, FaultPlan, MissMode, MissRelay,
    Retention, RetryPolicy, RoutedHandle, ServerSummary, SimConfig, SimOutput,
};
use memlat_des::metrics::CoalesceCounters;
use memlat_des::stream_rng;
use memlat_dist::GapLaw;
use memlat_model::{ArrivalPattern, ModelParams, ModelParamsBuilder};
use memlat_stats::{max_order_quantile, QuantileSketch, StreamingStats};
use memlat_workload::facebook;
use rand::RngCore;

/// The pre-fault simulator's output at [`pre_fault`], captured at commit
/// `008cca9` before the fault subsystem existed.
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

/// Record fingerprint of the fixed-ratio run at [`fixed_config`],
/// captured from the pre-`MissState` simulator.
const GOLDEN_FIXED_FNV: u64 = 0x3af6_61dd_e724_d184;

/// [`fnv1a_lru`] of the routed, coalesced, LRU-backed run at
/// [`lru_config`], captured while every cache-backed key still took the
/// scalar attempt path.
const GOLDEN_LRU_FNV: u64 = 0xe3a7_b621_2d8f_a39a;

/// [`fnv1a_hedged`] of the `hedged` row's reference run, re-captured
/// when the hash narrowed to one latency summary per server, on the
/// simulator that still kept the healthy/degraded split (the value the
/// split-free simulator must reproduce).
const GOLDEN_HEDGED_FNV: u64 = 0xfb25_f749_df90_06f8;

/// [`fnv1a_hedged`] of the `hedged_slow_replica` row's reference run,
/// captured at the same commit.
const GOLDEN_HEDGED_SLOW_REPLICA_FNV: u64 = 0x1efd_52c3_5a71_1871;

/// Folds `v`'s eight little-endian bytes into the FNV-1a state `h`.
fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the bit patterns of every `(s, d)` record, servers in
/// order, each `f32` widened to a `u64` — the layout the pinned goldens
/// were captured with. Any single-bit difference in any per-key latency
/// flips it.
fn fnv1a_columns<S>(servers: S) -> u64
where
    S: IntoIterator,
    S::Item: IntoIterator<Item = (f32, f32)>,
{
    let mut h = 0xcbf2_9ce4_8422_2325;
    for server in servers {
        for (s, d) in server {
            h = fnv1a_u64(h, u64::from(s.to_bits()));
            h = fnv1a_u64(h, u64::from(d.to_bits()));
        }
    }
    h
}

/// [`fnv1a_columns`] over every server's records in `out`.
fn fnv1a_records(out: &SimOutput) -> u64 {
    fnv1a_columns((0..out.shares().len()).map(|j| out.records(j)))
}

/// Everything a run reports, bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    keys: u64,
    /// [`fnv1a_columns`] of every record; `None` under Summary retention.
    records: Option<u64>,
    /// Per-server summaries. Under the independent relay each database
    /// trip also counts as a dispatch: the count a coalescing relay
    /// reports when no two same-key fetches overlap.
    summaries: Vec<ServerSummary>,
    /// The pooled sketch of per-key server latency.
    sketch: QuantileSketch,
    db: StreamingStats,
    db_sketch: QuantileSketch,
    miss_ratio: u64,
    /// The pooled sketch's `150/151` quantile; under Summary retention
    /// through the public `E[T_S(150)]` accessor, which must answer from
    /// that sketch. (Under Full retention the accessor reads the exact
    /// ECDF, a function of the records.)
    sketch_ets150: u64,
}

impl Fingerprint {
    fn of(out: &SimOutput, relay: MissRelay) -> Self {
        let mut summaries = out.summaries().to_vec();
        if relay == MissRelay::Independent {
            for s in &mut summaries {
                s.coalesce.dispatched += s.counters.misses + s.resilience.forced_misses;
            }
        }
        Self {
            keys: out.total_keys(),
            records: out.has_records().then(|| fnv1a_records(out)),
            summaries,
            sketch: out.pooled_latency_sketch().clone(),
            db: *out.db_latency_stats(),
            db_sketch: out.db_latency_sketch().clone(),
            miss_ratio: out.miss_ratio().to_bits(),
            sketch_ets150: if out.has_records() {
                sketch_ets150(out.pooled_latency_sketch())
            } else {
                out.expected_server_latency(150).to_bits()
            },
        }
    }
}

fn sketch_ets150(sketch: &QuantileSketch) -> u64 {
    sketch.quantile(max_order_quantile(150)).to_bits()
}

/// Holds the SIMD dispatch forced off for one run at a time; runs in
/// other rows may take either path meanwhile (the two are bit-identical).
static FORCED_SCALAR: Mutex<()> = Mutex::new(());

/// One way to rerun a row's configuration.
#[derive(Debug, Clone, Copy)]
enum Variant {
    /// `threads` workers at sampling block `block`: the scalar loop on
    /// four threads (one server each), an odd block (blocks end
    /// mid-batch) on two interleaved lanes, and one block spanning the
    /// whole run on one thread. The variants below run the default block
    /// (1024) on four threads.
    Layout { threads: usize, block: usize },
    /// Summary retention: no records, sketch-answered quantiles.
    Summary,
    /// The coalescing relay, on rows where no two same-key fetches can
    /// overlap: fixed-ratio misses carry no key, and a lone server's cache
    /// demand-fills a missed key before it can miss again.
    Coalesced,
    /// SIMD dispatch forced off: the kernels share the deterministic
    /// `dln`/`dexp` ports with the scalar fallback and use no FMA. On a
    /// host without AVX2 both paths are scalar and this is a self-check;
    /// CI also runs every test under `MEMLAT_NO_SIMD=1`.
    ForcedScalar,
    /// The materialize-then-fold reference pipeline ([`materialized`]),
    /// on healthy fixed-ratio rows.
    Materialized,
}

const VARIANTS: [Variant; 7] = [
    Variant::Layout {
        threads: 4,
        block: 1,
    },
    Variant::Layout {
        threads: 2,
        block: 37,
    },
    Variant::Layout {
        threads: 1,
        block: 1 << 22,
    },
    Variant::Summary,
    Variant::Coalesced,
    Variant::ForcedScalar,
    Variant::Materialized,
];

impl Variant {
    /// The variant's fingerprint of `cfg`, or `None` where it does not
    /// apply.
    fn run(self, cfg: &SimConfig) -> Option<Fingerprint> {
        let print =
            |cfg: SimConfig| Fingerprint::of(&ClusterSim::run(&cfg).unwrap(), cfg.miss_relay);
        let fixed = matches!(cfg.miss_mode, MissMode::FixedRatio);
        let parallel = cfg.clone().threads(4).block(0);
        match self {
            Self::Layout { threads, block } => {
                Some(print(cfg.clone().threads(threads).block(block)))
            }
            Self::Summary => Some(print(parallel.retention(Retention::Summary))),
            Self::Coalesced => (cfg.miss_relay == MissRelay::Independent
                && (fixed || cfg.params.servers() == 1))
                .then(|| print(parallel.miss_relay(MissRelay::Coalesced))),
            Self::ForcedScalar => {
                let _held = FORCED_SCALAR.lock().unwrap_or_else(|e| e.into_inner());
                memlat_dist::simd::set_forced_scalar(true);
                let got = print(parallel);
                memlat_dist::simd::set_forced_scalar(false);
                Some(got)
            }
            Self::Materialized => (fixed
                && cfg.fault_plan.is_empty()
                && cfg.client == ClientPolicy::none()
                && cfg.miss_relay == MissRelay::Independent)
                .then(|| materialized(cfg)),
        }
    }
}

/// Runs one server through [`simulate_server_streaming_with`],
/// collecting every record.
fn collect<R: RngCore + Clone>(
    p: ServerSimParams<'_>,
    rng: &mut R,
) -> (Vec<KeyRecord>, ServerRunStats) {
    let mut records = Vec::new();
    let stats =
        simulate_server_streaming_with(p, rng, &mut BlockScratch::new(), &mut records).unwrap();
    (records, stats)
}

/// The pre-streaming pipeline, rebuilt from public primitives: collect
/// every server's records on the scalar loop, then fold them into
/// summaries, the miss stream and the database stage in a second pass.
fn materialized(cfg: &SimConfig) -> Fingerprint {
    let params = &cfg.params;
    let q = params.concurrency();
    let mut columns: Vec<Vec<(f32, f32)>> = Vec::new();
    let mut summaries = Vec::new();
    let mut sketch = QuantileSketch::new();
    let mut misses = Vec::new();
    for (j, &p) in params
        .load()
        .shares(params.servers())
        .unwrap()
        .iter()
        .enumerate()
    {
        let lam_j = p * params.total_key_rate();
        let gaps = params.arrival().gap_law((1.0 - q) * lam_j).unwrap();
        let (records, stats) = collect(
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
                block: 1,
            },
            &mut stream_rng(cfg.seed, 1000 + j as u64),
        );
        let mut latency = StreamingStats::new();
        let mut cols = Vec::new();
        for (idx, r) in records.iter().enumerate() {
            if r.missed {
                misses.push(MissArrival {
                    time: r.completion,
                    origin: (j as u32, idx as u32),
                    key: r.key,
                });
            }
            latency.push(r.server_latency);
            sketch.push(r.server_latency);
            cols.push((r.server_latency as f32, 0.0));
        }
        summaries.push(ServerSummary {
            latency,
            counters: stats.counters,
            resilience: stats.resilience,
            coalesce: CoalesceCounters {
                dispatched: stats.counters.misses,
                ..CoalesceCounters::default()
            },
            utilization: stats.utilization,
            cached_items: stats.cached_items,
        });
        columns.push(cols);
    }
    misses.sort_by(|a, b| a.time.total_cmp(&b.time));
    let mut db = StreamingStats::new();
    let mut db_sketch = QuantileSketch::new();
    run_db_stage_with(
        &misses,
        cfg.effective_db_shards(),
        params.db_service_rate(),
        &mut stream_rng(cfg.seed, 2_000_000),
        |(server, idx), d| {
            db.push(d);
            db_sketch.push(d);
            columns[server as usize][idx as usize].1 = d as f32;
        },
    );
    let keys: u64 = summaries.iter().map(|s| s.counters.jobs).sum();
    let missed: u64 = summaries.iter().map(|s| s.counters.misses).sum();
    Fingerprint {
        keys,
        records: Some(fnv1a_columns(columns.iter().map(|c| c.iter().copied()))),
        sketch_ets150: sketch_ets150(&sketch),
        summaries,
        sketch,
        db,
        db_sketch,
        miss_ratio: (missed as f64 / keys as f64).to_bits(),
    }
}

/// [`fnv1a_records`]-seeded FNV-1a over everything a cache-backed run
/// reports per server — utilization bits, jobs, misses, resident items
/// and coalescing counters — then the cluster's emergent miss ratio.
fn fnv1a_lru(fp: &Fingerprint) -> u64 {
    let mut h = fp.records.expect("the LRU golden keeps records");
    let mut eat = |v: u64| h = fnv1a_u64(h, v);
    for s in &fp.summaries {
        eat(s.utilization.to_bits());
        eat(s.counters.jobs);
        eat(s.counters.misses);
        eat(s.cached_items);
        eat(s.coalesce.dispatched);
        eat(s.coalesce.delayed_hits);
        eat(s.coalesce.wait_time.to_bits());
    }
    eat(fp.miss_ratio);
    h
}

/// [`fnv1a_records`]-seeded FNV-1a over what the hedge pass rewrites:
/// each server's latency summary and hedge counters, then the
/// pooled sketch (count, bin count and a quantile ladder).
fn fnv1a_hedged(fp: &Fingerprint) -> u64 {
    let mut h = fp.records.expect("the hedged golden keeps records");
    let mut eat = |v: u64| h = fnv1a_u64(h, v);
    for s in &fp.summaries {
        eat(s.latency.count());
        eat(s.latency.mean().to_bits());
        eat(s.latency.population_variance().to_bits());
        eat(s.resilience.hedges_sent);
        eat(s.resilience.hedges_won);
    }
    eat(fp.sketch.count());
    eat(fp.sketch.bin_count() as u64);
    for p in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
        eat(fp.sketch.quantile(p).to_bits());
    }
    eat(fp.sketch_ets150);
    h
}

/// A row's pinned output.
#[derive(Debug, Clone, Copy)]
enum Golden {
    None,
    /// The `GOLDEN_*` statistics of the pre-fault simulator.
    PreFault,
    /// [`GOLDEN_FIXED_FNV`].
    Fixed,
    /// [`GOLDEN_LRU_FNV`].
    Lru,
    /// [`fnv1a_hedged`] equals the given constant.
    Hedged(u64),
}

impl Golden {
    fn check(self, out: &SimOutput, fp: &Fingerprint, name: &str) {
        match self {
            Self::None => {}
            Self::PreFault => {
                let mut pooled = StreamingStats::new();
                for s in &fp.summaries {
                    pooled.merge(&s.latency);
                }
                assert_eq!(
                    [
                        fp.keys,
                        fp.records.unwrap_or_default(),
                        pooled.mean().to_bits(),
                        fp.db.mean().to_bits(),
                        out.expected_server_latency(150).to_bits(),
                        fp.miss_ratio,
                        fp.summaries[0].utilization.to_bits(),
                    ],
                    [
                        GOLDEN_TOTAL_KEYS,
                        GOLDEN_RECORDS_FNV,
                        GOLDEN_POOLED_MEAN_BITS,
                        GOLDEN_DB_MEAN_BITS,
                        GOLDEN_ETS150_BITS,
                        GOLDEN_MISS_RATIO_BITS,
                        GOLDEN_UTIL0_BITS,
                    ],
                    "{name}: [keys, records, pooled mean, db mean, E[T_S(150)], miss ratio, \
                     server-0 utilization] moved from the pre-fault simulator"
                );
            }
            Self::Fixed => assert_eq!(
                fp.records,
                Some(GOLDEN_FIXED_FNV),
                "{name}: per-key record bits moved"
            ),
            Self::Lru => assert_eq!(
                fnv1a_lru(fp),
                GOLDEN_LRU_FNV,
                "{name}: cache-backed output moved"
            ),
            Self::Hedged(golden) => {
                assert_eq!(fnv1a_hedged(fp), golden, "{name}: hedged output moved")
            }
        }
    }
}

/// One configuration of the table.
struct Row {
    cfg: SimConfig,
    golden: Golden,
    /// What the reference run must show for the row to mean anything.
    requires: Option<(&'static str, fn(&SimOutput) -> bool)>,
}

impl Row {
    fn new(cfg: SimConfig) -> Self {
        Self {
            cfg,
            golden: Golden::None,
            requires: None,
        }
    }

    fn golden(self, golden: Golden) -> Self {
        Self { golden, ..self }
    }

    fn requires(self, what: &'static str, holds: fn(&SimOutput) -> bool) -> Self {
        Self {
            requires: Some((what, holds)),
            ..self
        }
    }

    fn check(self, name: &str) {
        let reference = ClusterSim::run(&self.cfg.clone().threads(1).block(1)).unwrap();
        assert!(reference.total_keys() > 1_000, "{name}: too few keys");
        if let Some((what, holds)) = self.requires {
            assert!(holds(&reference), "{name}: reference run shows no {what}");
        }
        let want = Fingerprint::of(&reference, self.cfg.miss_relay);
        self.golden.check(&reference, &want, name);
        for variant in VARIANTS {
            if let Some(got) = variant.run(&self.cfg) {
                // A Summary rerun keeps no records to hash.
                let want = Fingerprint {
                    records: got.records.and(want.records),
                    ..want.clone()
                };
                assert_eq!(got, want, "{name}: {variant:?} diverged from the reference");
            }
        }
    }
}

fn params(build: impl FnOnce(ModelParamsBuilder) -> ModelParamsBuilder) -> ModelParams {
    build(ModelParams::builder()).build().unwrap()
}

fn sim(params: ModelParams, seed: u64, duration: f64, warmup: f64) -> SimConfig {
    SimConfig::new(params)
        .duration(duration)
        .warmup(warmup)
        .seed(seed)
}

fn arrival(pattern: ArrivalPattern, seed: u64) -> Row {
    Row::new(sim(params(|b| b.arrival(pattern)), seed, 0.4, 0.1))
}

/// The paper's Table 3 parameters at the seed and horizon of the
/// pre-fault golden.
fn pre_fault() -> SimConfig {
    sim(params(|b| b), 0xd1ff, 0.5, 0.1)
}

/// Table 3 parameters at the seed and horizon of [`GOLDEN_FIXED_FNV`].
fn fixed_config() -> SimConfig {
    sim(params(|b| b), 0x70e7, 0.3, 0.1)
}

/// A routed, coalesced, LRU-backed run at the seed and horizon of
/// [`GOLDEN_LRU_FNV`]. Consistent hashing concentrates up to ~1.4× the
/// balanced share on one server, so the balanced ρ stays below ~0.7.
fn lru_config() -> SimConfig {
    sim(
        params(|b| b.key_rate_per_server(40_000.0)),
        0x70e7,
        0.3,
        0.1,
    )
    .miss_mode(MissMode::CacheBacked(routed_cache()))
    .miss_relay(MissRelay::Coalesced)
}

fn routed_cache() -> CacheBackedConfig {
    CacheBackedConfig {
        memory_bytes: 4 << 20,
        keyspace: 200_000,
        skew: 1.05,
        mean_value_bytes: 300.0,
        routing: CacheRouting::ConsistentHash { vnodes: 128 },
    }
}

/// One `#[test]` per row, so rows run in parallel and fail by name.
macro_rules! rows {
    ($($(#[doc = $doc:expr])* $name:ident => $row:expr;)*) => {
        $(
            $(#[doc = $doc])*
            #[test]
            fn $name() {
                $row.check(stringify!($name));
            }
        )*
    };
}

rows! {
    /// Table 3: the paper's default Facebook parameters.
    table3 => Row::new(sim(params(|b| b), 0x7ab1e3, 0.4, 0.1));
    /// Fig. 7: an elevated per-server key rate, where queueing dominates
    /// and long busy periods carry the Lindley scan's state across many
    /// block boundaries.
    fig07 => Row::new(sim(params(|b| b.key_rate_per_server(75_000.0)), 0xf17, 0.4, 0.1));
    /// The six arrival laws all go through the one block arrival driver:
    /// exponential and GP gaps stage speculatively over banked bits, the
    /// other four draw each gap in place.
    arrival_poisson => arrival(ArrivalPattern::Poisson, 0xa77);
    arrival_gp => arrival(ArrivalPattern::GeneralizedPareto { xi: 0.4 }, 0xa78);
    arrival_deterministic => arrival(ArrivalPattern::Deterministic, 0xa79);
    arrival_erlang => arrival(ArrivalPattern::Erlang { k: 4 }, 0xa7a);
    arrival_uniform => arrival(ArrivalPattern::Uniform, 0xa7b);
    arrival_hyperexponential => arrival(ArrivalPattern::Hyperexponential { scv: 4.0 }, 0xa7c);
    /// Hedged duplicates: the hedge pass runs after the per-server loop,
    /// in server order.
    hedged => Row::new(
        sim(params(|b| b), 0x4ed6, 0.3, 0.05).client(ClientPolicy::none().hedge(2e-4)),
    )
    .golden(Golden::Hedged(GOLDEN_HEDGED_FNV))
    .requires("hedges", |out| out.resilience().hedges_sent > 0);
    /// Hedging against a slowed server 0: its hedges win often, so the
    /// last server, whose replica is server 0, must draw from server 0's
    /// pre-hedge column, not the one the hedge stage already rewrote.
    hedged_slow_replica => Row::new(
        sim(params(|b| b), 0x4ed7, 0.3, 0.05)
            .fault_plan(FaultPlan::none().slowdown(0, 0.1, 0.3, 1.2))
            .client(ClientPolicy::none().hedge(2e-4)),
    )
    .golden(Golden::Hedged(GOLDEN_HEDGED_SLOW_REPLICA_FNV))
    .requires("hedges won on server 0 and sent by the last server", |out| {
        out.summary(0).resilience.hedges_won > 0 && out.summary(3).resilience.hedges_sent > 0
    });
    /// A timeout far above any sojourn takes the fault-aware scalar path
    /// but never fails an attempt: the draw sequence, and so the
    /// pre-fault golden, must stay.
    inert_timeout => Row::new(pre_fault().client(ClientPolicy::none().timeout(1e3)))
        .golden(Golden::PreFault)
        .requires("quiet resilience counters", |out| !out.resilience().any());
    /// Crashes, slowdowns, timeouts and retries: forced misses reach the
    /// database keyless and never coalesce.
    faulted => Row::new(
        sim(params(|b| b), 0xfa017, 0.4, 0.1)
            .fault_plan(FaultPlan::none().crash(1, 0.15, 0.25).slowdown(2, 0.2, 0.4, 4.0))
            .client(ClientPolicy::none().timeout(5e-3).retry(RetryPolicy::default())),
    )
    .requires("forced misses", |out| out.resilience().forced_misses > 0);
    /// A single cache-backed server: a missed key is demand-filled the
    /// instant it misses and cannot miss again until evicted (seconds
    /// away), so even with real key identities the coalescing relay must
    /// match the independent one. (With several servers a hot-tail key
    /// can miss on two private caches inside one fetch window: real
    /// coalescing.) The database is sharded wide enough to stay offloaded
    /// under the emergent ~44% miss ratio — the auto-sizer only knows the
    /// configured 1% — keeping fetch windows at the 20 µs service floor.
    single_server_cache => Row::new(
        sim(params(|b| b.servers(1).db_service_rate(50_000.0)), 0xcac4ed, 0.4, 0.1)
            .db_shards(64)
            .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
                memory_bytes: 48 << 20,
                keyspace: 2_000_000,
                skew: 1.01,
                mean_value_bytes: 329.0,
                routing: CacheRouting::Independent,
            })),
    );
    /// A routed, coalesced, LRU-backed cluster on the LRU block lanes.
    routed_coalesced_lru => Row::new(
        sim(params(|b| b.key_rate_per_server(40_000.0)), 0x1a0c, 0.3, 0.1)
            .miss_relay(MissRelay::Coalesced)
            .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
                memory_bytes: 4 << 20,
                keyspace: 300_000,
                skew: 1.1,
                mean_value_bytes: 300.0,
                routing: CacheRouting::ConsistentHash { vnodes: 128 },
            })),
    )
    .requires("delayed hits", |out| out.coalesce().delayed_hits > 0);
    /// The empty fault plan and passive client consume exactly the
    /// draws of the pre-fault simulator.
    golden_pre_fault => Row::new(pre_fault())
        .golden(Golden::PreFault)
        .requires("quiet resilience counters", |out| {
            !out.resilience().any() && out.forced_miss_ratio() == 0.0
        });
    /// The fixed-ratio hot path is untouched by the `MissState` deciders.
    golden_fixed => Row::new(fixed_config()).golden(Golden::Fixed);
    /// Cache-backed output is pinned, not only compared with itself.
    golden_lru => Row::new(lru_config())
        .golden(Golden::Lru)
        .requires("emergent misses and delayed hits", |out| {
            out.miss_ratio() > 0.0 && out.coalesce().delayed_hits > 0
        });
}

/// One server through [`collect`] at `block`: the Facebook service rate,
/// concurrency `q` and model miss ratio `r` (the fixed ratio;
/// cache-backed modes ignore it) over the given gap law, with a 0.3 s
/// measured window after `warmup`. Returns the records, the run's
/// statistics and the RNG's next draw.
fn one_server(
    mode: &MissMode,
    gaps: GapLaw,
    q: f64,
    r: f64,
    routed: Option<RoutedHandle>,
    warmup: f64,
    block: usize,
    seed: u64,
) -> (Vec<KeyRecord>, ServerRunStats, u64) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (records, stats) = collect(
        ServerSimParams {
            interarrival: gaps,
            concurrency: q,
            service_rate: facebook::SERVICE_RATE,
            miss_ratio: r,
            miss_mode: mode,
            popularity: None,
            routed,
            warmup,
            duration: 0.3,
            faults: ServerFaults::none(),
            client: ClientPolicy::none(),
            block,
        },
        &mut rng,
    );
    (records, stats, rng.next_u64())
}

/// The LRU block lanes against the scalar attempt path (`block = 1`),
/// per server: records (key ids included), counters, the store's
/// resident items as of the last kept key, utilization, and the RNG's
/// stream position afterwards. Covers the alias sampler
/// (≤ 2²⁰ keys, routed and independent) and rejection-inversion
/// (> 2²⁰ keys, a variable draw count per key), the speculative GP
/// driver and the in-place Erlang one, with and without warm-up. Block
/// 2²² stages the whole run speculatively, so its horizon tail is the
/// largest.
#[test]
fn lru_lanes_match_the_scalar_attempt_path_per_server() {
    use memlat_dist::{Gamma, GeneralizedPareto};
    use memlat_workload::facebook::CONCURRENCY_Q as Q;
    use memlat_workload::{RoutedKeyspace, ZipfPopularity};
    let cache = |keyspace: u64, routing: CacheRouting| {
        MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 4 << 20,
            keyspace,
            skew: 1.05,
            mean_value_bytes: 300.0,
            routing,
        })
    };
    let ring = RoutedKeyspace::new(&ZipfPopularity::new(200_000, 1.05).unwrap(), 3, 64).unwrap();
    let routed = RoutedHandle {
        keyspace: Arc::new(ring),
        server: 2,
    };
    let gp = GapLaw::from(GeneralizedPareto::facebook(0.15, 56_250.0).unwrap());
    let erlang = GapLaw::from(Gamma::erlang(4, 1.0 / 56_250.0).unwrap());
    let cases = [
        (
            "alias",
            cache(200_000, CacheRouting::Independent),
            None,
            &gp,
        ),
        (
            "routed",
            cache(200_000, CacheRouting::ConsistentHash { vnodes: 64 }),
            Some(routed),
            &gp,
        ),
        (
            "rejection",
            cache(2_000_000, CacheRouting::Independent),
            None,
            &gp,
        ),
        (
            "rejection-erlang",
            cache(2_000_000, CacheRouting::Independent),
            None,
            &erlang,
        ),
    ];
    for (i, (name, mode, handle, gaps)) in cases.iter().enumerate() {
        for warmup in [0.0, 0.15] {
            let seed = 0x1a0e + i as u64;
            let (want, want_stats, want_next) = one_server(
                mode,
                (*gaps).clone(),
                Q,
                0.0,
                handle.clone(),
                warmup,
                1,
                seed,
            );
            assert!(want.len() > 5_000, "{name}: too few keys");
            assert!(want.iter().any(|r| r.missed), "{name}: no misses");
            for block in [2usize, 37, 1024, 1 << 22] {
                let at = format!("{name} warmup={warmup} block={block}");
                let (got, got_stats, got_next) = one_server(
                    mode,
                    (*gaps).clone(),
                    Q,
                    0.0,
                    handle.clone(),
                    warmup,
                    block,
                    seed,
                );
                assert_eq!(got, want, "{at}: records");
                assert_eq!(got_stats.counters, want_stats.counters, "{at}: counters");
                assert_eq!(
                    got_stats.cached_items, want_stats.cached_items,
                    "{at}: cached items"
                );
                assert_eq!(
                    got_stats.utilization.to_bits(),
                    want_stats.utilization.to_bits(),
                    "{at}: utilization"
                );
                assert_eq!(got_next, want_next, "{at}: RNG stream position");
            }
        }
    }
}

/// The fixed-ratio block lanes against the scalar attempt path
/// (`block = 1`), per server: records, counters, utilization bits (the
/// busy time over the horizon), and the RNG's stream position
/// afterwards. The warm-up phase runs on the lanes up to
/// the batch that crosses the warm-up boundary, which then seeds the
/// measured phase; the warm-ups cover none, one shorter than the first
/// gap, a mid-run boundary, and one longer than the measured window.
/// Gaps cover the speculative GP and exponential drivers and the
/// in-place Erlang and deterministic ones; `q = 0` draws no batch-size
/// uniform and `r = 0` no miss uniform.
#[test]
fn fixed_lanes_match_the_scalar_attempt_path_per_server() {
    use memlat_dist::{Deterministic, Exponential, Gamma, GeneralizedPareto};
    let fixed = MissMode::FixedRatio;
    let batch_rate = 56_250.0;
    let laws = [
        (
            "gp",
            GapLaw::from(GeneralizedPareto::facebook(0.15, batch_rate).unwrap()),
        ),
        ("exp", GapLaw::from(Exponential::new(batch_rate).unwrap())),
        (
            "erlang",
            GapLaw::from(Gamma::erlang(4, 1.0 / batch_rate).unwrap()),
        ),
        (
            "det",
            GapLaw::from(Deterministic::new(1.0 / batch_rate).unwrap()),
        ),
    ];
    for (i, (name, gaps)) in laws.iter().enumerate() {
        for (j, &(r, q)) in [(0.01, 0.1), (0.0, 0.1), (0.01, 0.0), (0.0, 0.0)]
            .iter()
            .enumerate()
        {
            for warmup in [0.0, 1e-9, 0.15, 0.5] {
                let seed = 0xf1ed + 4 * i as u64 + j as u64;
                let (want, want_stats, want_next) =
                    one_server(&fixed, gaps.clone(), q, r, None, warmup, 1, seed);
                assert!(want.len() > 5_000, "{name}: too few keys");
                assert_eq!(want.iter().any(|k| k.missed), r > 0.0, "{name}");
                for block in [2usize, 37, 1024, 1 << 22] {
                    let at = format!("{name} r={r} q={q} warmup={warmup} block={block}");
                    let (got, got_stats, got_next) =
                        one_server(&fixed, gaps.clone(), q, r, None, warmup, block, seed);
                    assert_eq!(got, want, "{at}: records");
                    assert_eq!(got_stats.counters, want_stats.counters, "{at}: counters");
                    assert_eq!(
                        got_stats.utilization.to_bits(),
                        want_stats.utilization.to_bits(),
                        "{at}: utilization"
                    );
                    assert_eq!(got_next, want_next, "{at}: RNG stream position");
                }
            }
        }
    }
}

/// The other side of the relay differential: with slow fetches against
/// a small, hot keyspace, same-key misses overlap constantly — the
/// coalesced relay must diverge from the independent one, report
/// delayed hits, and dispatch strictly fewer database fetches.
#[test]
fn coalescing_diverges_when_fetches_overlap() {
    let params = ModelParams::builder()
        .db_service_rate(200.0)
        .build()
        .unwrap();
    let base = SimConfig::new(params)
        .duration(0.4)
        .warmup(0.1)
        .seed(0xde1a7ed)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 1 << 20,
            keyspace: 50_000,
            skew: 1.1,
            mean_value_bytes: 300.0,
            routing: CacheRouting::Independent,
        }));
    let independent = ClusterSim::run(&base).unwrap();
    let coalesced = ClusterSim::run(&base.clone().miss_relay(MissRelay::Coalesced)).unwrap();
    // Server-side streams are identical (the relay is post-merge): same
    // keys, same misses.
    assert_eq!(independent.total_keys(), coalesced.total_keys());
    assert_eq!(independent.miss_ratio(), coalesced.miss_ratio());
    let c = coalesced.coalesce();
    assert!(c.delayed_hits > 0, "regime should coalesce heavily");
    assert!(c.wait_time > 0.0);
    assert_eq!(
        c.dispatched + c.delayed_hits,
        coalesced.db_latency_stats().count(),
        "every db-path resolution is a dispatch or a delayed hit"
    );
    assert!(
        c.dispatched < independent.db_latency_stats().count(),
        "coalescing must shed dispatches"
    );
    assert_ne!(
        fnv1a_records(&independent),
        fnv1a_records(&coalesced),
        "db latencies must actually differ"
    );
    // And the coalesced run itself stays thread-count invariant.
    let par = ClusterSim::run(&base.threads(4).miss_relay(MissRelay::Coalesced)).unwrap();
    assert_eq!(
        fnv1a_records(&coalesced),
        fnv1a_records(&par),
        "coalesced run diverged across thread counts"
    );
    assert_eq!(par.coalesce(), c);
}

/// Switching the cache population from independent full-Zipf streams to
/// ring-routed conditional streams must change the miss process — same
/// seed, different key law — and must induce the unbalanced ring shares
/// in place of the balanced ones.
#[test]
fn routing_changes_the_miss_stream_and_the_shares() {
    let routed_config = || {
        sim(
            params(|b| b.key_rate_per_server(40_000.0)),
            0x70e7,
            0.3,
            0.1,
        )
    };
    let mut independent_cache = routed_cache();
    independent_cache.routing = CacheRouting::Independent;
    let independent = ClusterSim::run(
        &routed_config()
            .threads(2)
            .miss_mode(MissMode::CacheBacked(independent_cache)),
    )
    .unwrap();
    let routed = ClusterSim::run(
        &routed_config()
            .threads(2)
            .miss_mode(MissMode::CacheBacked(routed_cache())),
    )
    .unwrap();

    // Both emerge a real miss ratio...
    assert!(independent.miss_ratio() > 0.0);
    assert!(routed.miss_ratio() > 0.0);
    // ...but from different key processes.
    assert_ne!(
        fnv1a_records(&independent),
        fnv1a_records(&routed),
        "routing left the per-key records untouched"
    );

    // Independent mode keeps the configured balanced shares; routing
    // replaces them with the ring-induced masses, which sum to 1 but
    // are not uniform.
    let m = independent.shares().len();
    assert!(independent
        .shares()
        .iter()
        .all(|&p| (p - 1.0 / m as f64).abs() < 1e-12));
    let total: f64 = routed.shares().iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "routed shares sum {total}");
    assert!(
        routed
            .shares()
            .iter()
            .any(|&p| (p - 1.0 / m as f64).abs() > 1e-3),
        "ring shares suspiciously uniform: {:?}",
        routed.shares()
    );

    // Each routed server stores only its owned slice, so the cluster
    // holds ~one copy of the hot set; independent servers each cache
    // their own copy. Total resident items therefore differ.
    assert!(routed.cached_items() > 0);
    assert!(independent.cached_items() > 0);
}
