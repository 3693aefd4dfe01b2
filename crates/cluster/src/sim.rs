//! The cluster simulation: M servers → sharded database.
//!
//! [`ClusterSim::run_with`] resolves the configuration once into a
//! private `Plan` and runs Theorem 1's stages over it in order: the
//! **servers** stage (every GI^X/M/1 queue, `T_S`, each writing its
//! [`ServerSummary`] in place), the **hedge** stage on hedged runs, the
//! miss **merge**, and the sharded M/M/1 **database** stage (`T_D`), one
//! engine with or without miss coalescing.
//!
//! The per-server simulations are embarrassingly parallel *by
//! construction*: server `j` draws every random number from its own
//! seed-derived stream (`stream_rng(seed, 1000 + j)`), the worker latency
//! sketches merge by count addition, and the database stage consumes one
//! miss stream in `(time, server, push order)` order — one sort by
//! `(time, origin)` over the per-worker miss buffers. The servers stage
//! therefore hands servers round-robin to the [`pool`](crate::pool)'s
//! [`SimConfig::threads`] workers and produces **bit-identical** output
//! at every thread count for a fixed seed.
//!
//! The per-key hot path is **streaming and block-batched**: each
//! server's resolved keys flow from [`simulate_server_streaming_with`]
//! straight into the server's one Welford latency summary and its
//! worker's one latency sketch and miss buffer (and, only when the
//! retention policy or hedging needs them, into reusable [`KeyColumns`]
//! buffers), a [`SimConfig::effective_block`]-sized lane block at a
//! time on eligible runs. Under [`Retention::Summary`] without hedging,
//! peak memory is one fixed-size [`ServerSummary`] (160 B) per server,
//! one block scratch and one sketch per worker thread, the state of the server
//! each worker is running (its FCFS station is three numbers, however
//! long the queue; a cache-backed server adds its store), and the miss
//! stream (one entry per missed key). Hedging keeps every server's
//! column plus one pre-hedge copy of server 0's. Sweeps can pass one
//! [`SimScratch`] to [`ClusterSim::run_with`] to reuse every buffer
//! across runs.

use std::sync::Arc;

use memlat_des::metrics::{CoalesceCounters, ResilienceCounters, ServerCounters};
use memlat_des::rng::stream_rng;
use memlat_stats::{Ecdf, QuantileSketch, StreamingStats};
use rand::RngCore;

use memlat_workload::{RoutedKeyspace, ZipfPopularity};

use crate::{
    columns::KeyColumns,
    config::{CacheRouting, MissMode, MissRelay, Retention, SimConfig},
    database::{db_stage, MissArrival, NO_KEY},
    fault::hedge_outcome,
    miss::RoutedHandle,
    server::{
        simulate_server_streaming_with, BlockScratch, KeyBlock, KeyRecord, RecordSink,
        ServerSimParams,
    },
    SimError,
};

/// The orchestrator: runs every memcached server, merges the cache-miss
/// streams into the sharded database, and produces a [`SimOutput`].
#[derive(Debug)]
pub struct ClusterSim;

/// Streaming summary of one server's run: always collected, independent
/// of the [`Retention`] policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSummary {
    /// Welford statistics of the per-key server latency `s` over every
    /// recorded key, forced misses included; post-hedge on hedged runs,
    /// folded from the same `f32` column the pooled sketch reads.
    pub latency: StreamingStats,
    /// Keys recorded and keys missed over the measured window.
    pub counters: ServerCounters,
    /// Fault and client-resilience counters (all zero on healthy runs).
    pub resilience: ResilienceCounters,
    /// Miss-coalescing counters for this server's database trips:
    /// fetches dispatched, delayed hits (misses that waited on an
    /// outstanding fetch for the same key), and total wait time. All
    /// zero under [`MissRelay::Independent`].
    pub coalesce: CoalesceCounters,
    /// Observed utilization (busy time ÷ horizon).
    pub utilization: f64,
    /// Items resident in this server's backing store at the end of the
    /// run (0 under [`MissMode::FixedRatio`]). Summed across servers
    /// this is the cluster capacity `x` of the Ji/Quan/Tan asymptotic.
    pub cached_items: u64,
}

impl ServerSummary {
    fn empty() -> Self {
        Self {
            latency: StreamingStats::new(),
            counters: ServerCounters::default(),
            resilience: ResilienceCounters::default(),
            coalesce: CoalesceCounters::default(),
            utilization: 0.0,
            cached_items: 0,
        }
    }
}

/// One server's reusable per-key buffers, populated only when the
/// retention policy or hedging needs them.
#[derive(Debug, Default)]
struct ServerCell {
    /// `(s, d)` columns in arrival order (db latency filled in later).
    cols: KeyColumns,
    /// Per-record forced-miss flags, kept only when hedging: the hedge
    /// stage never duplicates a key the cache tier already failed.
    forced: Vec<bool>,
}

/// One worker thread's reusable state. A thread simulates its servers
/// one at a time, so everything here costs `O(threads)`, not
/// `O(servers)`.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Staging lanes for the block-batched server hot path.
    block: BlockScratch,
    /// Sketch of `s` over every key of this worker's servers. Sketches
    /// merge by count addition, so the pooled sketch does not depend on
    /// which worker simulated which server.
    sketch: QuantileSketch,
    /// Missed keys of this worker's servers in push order: arrival time
    /// at the database + origin `(server, idx)`. The merge step sorts
    /// them (see [`merge_misses`]).
    misses: Vec<MissArrival>,
}

/// The per-server streaming fold: consumes resolved keys (one at a time
/// or a lane block at a time) into the summaries, the worker's sketch
/// and miss stream, and the optional per-key columns. Living behind
/// [`RecordSink`] instead of a closure lets the block path push whole
/// slices into the Welford accumulator, sketch and columns.
struct WorkerSink<'a> {
    j: u32,
    idx: u32,
    keep_pairs: bool,
    hedging: bool,
    misses: &'a mut Vec<MissArrival>,
    sketch: &'a mut QuantileSketch,
    cols: &'a mut KeyColumns,
    forced: &'a mut Vec<bool>,
    latency: StreamingStats,
}

impl RecordSink for WorkerSink<'_> {
    fn record(&mut self, r: &KeyRecord) {
        // Forced misses fall through to the database too: the cache
        // tier failed them, the backing store answers.
        if r.missed || r.forced {
            self.misses.push(MissArrival {
                time: r.completion,
                origin: (self.j, self.idx),
                // Forced misses never sampled a key; regular misses carry
                // whatever identity the decider drew (NO_KEY on the
                // fixed-ratio path).
                key: if r.forced { NO_KEY } else { r.key },
            });
        }
        self.latency.push(r.server_latency);
        self.sketch.push(r.server_latency);
        if self.keep_pairs {
            self.cols.push_server(r.server_latency as f32);
        }
        if self.hedging {
            self.forced.push(r.forced);
        }
        self.idx += 1;
    }

    fn record_block(&mut self, b: &KeyBlock<'_>) {
        // Blocks only arrive on eligible runs (no faults, no timeout):
        // no key is forced.
        for (i, &missed) in b.missed.iter().enumerate() {
            if missed {
                self.misses.push(MissArrival {
                    time: b.completion[i],
                    origin: (self.j, self.idx + i as u32),
                    // Blocks exist only on the fixed-ratio path: no key.
                    key: NO_KEY,
                });
            }
        }
        self.latency.push_slice(b.latency);
        self.sketch.push_slice(b.latency);
        if self.keep_pairs {
            self.cols.extend_server(b.latency);
        }
        if self.hedging {
            self.forced.resize(self.forced.len() + b.len(), false);
        }
        self.idx += b.len() as u32;
    }
}

/// Reusable simulation buffers: every allocation whose size scales with
/// the key count lives here, so a sweep that calls
/// [`ClusterSim::run_with`] with the same scratch allocates per-key
/// memory once and reuses it at every sweep point.
///
/// # Examples
///
/// ```
/// use memlat_cluster::{ClusterSim, SimConfig, SimScratch};
/// use memlat_model::ModelParams;
///
/// # fn main() -> Result<(), memlat_cluster::SimError> {
/// let mut scratch = SimScratch::new();
/// for seed in [1, 2] {
///     let params = ModelParams::builder().build()?;
///     let cfg = SimConfig::new(params).duration(0.2).seed(seed);
///     let out = ClusterSim::run_with(&cfg, &mut scratch)?;
///     assert!(out.total_keys() > 0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Per-server column buffers, indexed by server (empty unless the
    /// run keeps records or hedges).
    cells: Vec<ServerCell>,
    /// One block scratch, latency sketch and miss buffer per worker
    /// thread, not per server: at M = 10 000 servers per-server copies
    /// dominated peak memory.
    workers: Vec<WorkerScratch>,
    /// Server 0's pre-hedge latency column (hedging only): the last
    /// server's replica, which the hedge stage has already rewritten by
    /// the time the last server reads it.
    pristine: Vec<f32>,
    /// The merged miss stream.
    misses: Vec<MissArrival>,
    /// Cached Zipf popularity keyed by `(keyspace, skew bits)`. Its
    /// O(keyspace) alias table is built by the first key draw, so once
    /// per scratch per configuration under independent routing (not
    /// once per server per sweep point), and never under consistent-hash
    /// routing, which reads only the pmf.
    zipf: Option<((u64, u64), Arc<ZipfPopularity>)>,
    /// Cached consistent-hash routing table keyed by
    /// `(keyspace, skew bits, servers, vnodes)`: the O(keyspace) ring
    /// walk and conditional-sampler builds happen once per scratch per
    /// cluster configuration.
    routed: Option<((u64, u64, u64, u64), Arc<RoutedKeyspace>)>,
}

impl SimScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Everything a simulation run produces.
#[derive(Debug)]
pub struct SimOutput {
    /// Per-server `(s, d)` columns in arrival order; `None` under
    /// [`Retention::Summary`].
    server_records: Option<Vec<KeyColumns>>,
    /// Always-on per-server streaming summaries.
    summaries: Vec<ServerSummary>,
    /// Quantile sketch of per-key server latency, pooled over all
    /// servers.
    sketch: QuantileSketch,
    /// Welford statistics of db latency over the missed keys.
    db_latency: StreamingStats,
    /// Quantile sketch of db latency over the missed keys.
    db_sketch: QuantileSketch,
    /// Load shares used (for request assembly).
    shares: Vec<f64>,
    /// Constant network latency.
    network: f64,
    /// Observed per-server utilization.
    utilization: Vec<f64>,
    /// Observed overall miss ratio.
    miss_ratio: f64,
    /// Keys recorded.
    total_keys: u64,
}

impl ClusterSim {
    /// Runs the full simulation with one-shot buffers.
    ///
    /// # Errors
    ///
    /// Propagates configuration and model errors.
    pub fn run(cfg: &SimConfig) -> Result<SimOutput, SimError> {
        Self::run_with(cfg, &mut SimScratch::new())
    }

    /// Runs the full simulation, reusing `scratch`'s buffers.
    ///
    /// Output is bit-identical to [`ClusterSim::run`]; sweeps that run
    /// many configurations pass the same scratch to skip re-growing the
    /// per-key buffers at every point.
    ///
    /// # Errors
    ///
    /// Propagates configuration and model errors.
    pub fn run_with(cfg: &SimConfig, scratch: &mut SimScratch) -> Result<SimOutput, SimError> {
        let SimScratch {
            cells,
            workers,
            pristine,
            misses,
            zipf,
            routed,
        } = scratch;
        let plan = Plan::resolve(cfg, zipf, routed)?;
        let servers = plan.shares.len();
        if cells.len() < servers {
            cells.resize_with(servers, ServerCell::default);
        }
        if workers.len() < plan.threads {
            workers.resize_with(plan.threads, WorkerScratch::default);
        }
        let cells = &mut cells[..servers];
        let workers = &mut workers[..plan.threads];

        let mut summaries = vec![ServerSummary::empty(); servers];
        plan.servers_stage(&mut summaries, cells, workers)?;
        let sketch = match cfg.client.hedge {
            Some(h) if servers > 1 => {
                hedge_stage(cfg.seed, h.delay, &mut summaries, cells, pristine)
            }
            _ => {
                let mut sketch = QuantileSketch::new();
                for w in workers.iter() {
                    sketch.merge(&w.sketch);
                }
                sketch
            }
        };
        // Full retention moves the columns into the output; the scratch
        // keeps only the (empty) replacement buffers.
        let mut records = plan.keep_records.then(|| {
            cells
                .iter_mut()
                .map(|cell| std::mem::take(&mut cell.cols))
                .collect::<Vec<_>>()
        });
        merge_misses(workers, misses);
        let (db_latency, db_sketch) =
            plan.database_stage(misses, &mut summaries, records.as_deref_mut());

        let total_keys: u64 = summaries.iter().map(|s| s.counters.jobs).sum();
        // Regular cache misses only: forced misses are accounted
        // separately (they reach the database but are a fault artifact,
        // not a cache property).
        let total_misses: u64 = summaries.iter().map(|s| s.counters.misses).sum();
        Ok(SimOutput {
            server_records: records,
            utilization: summaries.iter().map(|s| s.utilization).collect(),
            summaries,
            sketch,
            db_latency,
            db_sketch,
            network: cfg.params.network_latency(),
            shares: plan.shares,
            miss_ratio: if total_keys == 0 {
                0.0
            } else {
                total_misses as f64 / total_keys as f64
            },
            total_keys,
        })
    }
}

/// A validated run, resolved once: everything the stages of
/// [`ClusterSim::run_with`] read besides the scratch buffers.
struct Plan<'a> {
    cfg: &'a SimConfig,
    /// The load shares in force: the configured ones, or the ring's under
    /// consistent-hash routing.
    shares: Vec<f64>,
    /// Zipf popularity of cache-backed runs.
    popularity: Option<Arc<ZipfPopularity>>,
    /// The routing table under consistent-hash routing.
    routed: Option<Arc<RoutedKeyspace>>,
    /// Worker threads, at most one per server.
    threads: usize,
    block: usize,
    /// [`Retention::Full`]: the per-key columns go into the output.
    keep_records: bool,
    /// Hedged duplicates: the hedge stage needs every key's column too.
    hedging: bool,
}

impl<'a> Plan<'a> {
    /// Validates `cfg` and resolves its shares, popularity and routing,
    /// reusing the scratch's cached builds where the key matches.
    fn resolve(
        cfg: &'a SimConfig,
        zipf: &mut Option<((u64, u64), Arc<ZipfPopularity>)>,
        routed: &mut Option<((u64, u64, u64, u64), Arc<RoutedKeyspace>)>,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let params = &cfg.params;
        let mut shares = params.load().shares(params.servers())?;
        let servers = shares.len();
        // The popularity's alias table, built by its first draw, is
        // O(keyspace): a sweep must not pay it once per server per point.
        let popularity = match &cfg.miss_mode {
            MissMode::FixedRatio => None,
            MissMode::CacheBacked(cc) => {
                Some(cached(zipf, (cc.keyspace, cc.skew.to_bits()), || {
                    ZipfPopularity::new(cc.keyspace, cc.skew)
                })?)
            }
        };
        // Cluster-wide consistent hashing replaces the configured load
        // shares with the ring-induced ones: each server receives exactly
        // the popularity mass of the keys it owns, so the unbalanced
        // `{p_j}` *emerges* from the ring instead of being postulated.
        let routed = match (&cfg.miss_mode, &popularity) {
            (MissMode::CacheBacked(cc), Some(pop)) => match cc.routing {
                CacheRouting::Independent => None,
                CacheRouting::ConsistentHash { vnodes } => {
                    if !matches!(params.load(), memlat_model::LoadDistribution::Balanced) {
                        return Err(SimError::InvalidConfig(
                            "consistent-hash routing derives the load shares from the ring; \
                             configure LoadDistribution::Balanced"
                                .into(),
                        ));
                    }
                    let key = (
                        cc.keyspace,
                        cc.skew.to_bits(),
                        servers as u64,
                        vnodes as u64,
                    );
                    let arc = cached(routed, key, || RoutedKeyspace::new(pop, servers, vnodes))?;
                    shares = arc.shares().to_vec();
                    Some(arc)
                }
            },
            _ => None,
        };
        // The DES would happily simulate an overloaded server, but every
        // stationary estimator downstream would silently depend on the
        // horizon; refuse, like the analytical model does. The float ops
        // are those of `ModelParams::peak_utilization`.
        let peak = shares.iter().copied().fold(0.0, f64::max) * params.total_key_rate()
            / params.service_rate();
        if peak >= 1.0 {
            let source = routed.as_ref().map_or("", |_| "ring-induced ");
            return Err(SimError::InvalidConfig(format!(
                "{source}peak server utilization {peak:.3} >= 1: no stationary regime"
            )));
        }
        Ok(Self {
            cfg,
            shares,
            popularity,
            routed,
            threads: cfg.effective_threads().clamp(1, servers.max(1)),
            block: cfg.effective_block(),
            keep_records: cfg.retention == Retention::Full,
            hedging: cfg.client.hedge.is_some(),
        })
    }

    /// The servers stage: simulates every server into its slot of
    /// `summaries` on the [`pool`](crate::pool), one worker per entry of
    /// `workers`. Server `j` runs on worker `j mod threads` with its own
    /// cell and summary, both indexed by server; the lowest failing
    /// server's error is the run's.
    fn servers_stage(
        &self,
        summaries: &mut [ServerSummary],
        cells: &mut [ServerCell],
        workers: &mut [WorkerScratch],
    ) -> Result<(), SimError> {
        for w in workers.iter_mut() {
            w.sketch = QuantileSketch::new();
            w.misses.clear();
        }
        crate::pool::for_each(
            workers,
            summaries.iter_mut().zip(cells),
            |ws, j, (summary, cell)| {
                *summary = self.simulate_server(j, cell, ws)?;
                Ok(())
            },
        )
    }

    /// Server `j`'s run on one worker's scratch; which worker runs it
    /// cannot change the output.
    fn simulate_server(
        &self,
        j: usize,
        cell: &mut ServerCell,
        ws: &mut WorkerScratch,
    ) -> Result<ServerSummary, SimError> {
        let ServerCell { cols, forced } = cell;
        cols.clear();
        forced.clear();
        let p = self.shares[j];
        if p <= 0.0 {
            return Ok(ServerSummary::empty());
        }
        let (cfg, params) = (self.cfg, &self.cfg.params);
        let q = params.concurrency();
        let lam_j = p * params.total_key_rate();
        let gaps = params
            .arrival()
            .gap_law((1.0 - q) * lam_j)
            .map_err(SimError::Model)?;
        let mut rng = stream_rng(cfg.seed, 1000 + j as u64);
        let mut sink = WorkerSink {
            j: j as u32,
            idx: 0,
            // The per-key columns are needed for the output (Full
            // retention) and for the hedge stage's replica populations;
            // otherwise the run is fully streaming.
            keep_pairs: self.keep_records || self.hedging,
            hedging: self.hedging,
            misses: &mut ws.misses,
            sketch: &mut ws.sketch,
            cols,
            forced,
            latency: StreamingStats::new(),
        };
        let stats = simulate_server_streaming_with(
            ServerSimParams {
                interarrival: gaps,
                concurrency: q,
                service_rate: params.service_rate(),
                miss_ratio: params.miss_ratio(),
                miss_mode: &cfg.miss_mode,
                popularity: self.popularity.clone(),
                routed: self.routed.as_ref().map(|ks| RoutedHandle {
                    keyspace: Arc::clone(ks),
                    server: j,
                }),
                warmup: cfg.warmup,
                duration: cfg.duration,
                faults: cfg.fault_plan.for_server(j),
                client: cfg.client,
                block: self.block,
            },
            &mut rng,
            &mut ws.block,
            &mut sink,
        )
        .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
        Ok(ServerSummary {
            latency: sink.latency,
            counters: stats.counters,
            resilience: stats.resilience,
            // Filled in by the coalescing database stage.
            coalesce: CoalesceCounters::default(),
            utilization: stats.utilization,
            cached_items: stats.cached_items,
        })
    }

    /// The database stage over the merged miss stream: pools the db
    /// latencies, counts coalescing outcomes per origin server and, under
    /// Full retention, writes each latency back to its record.
    fn database_stage(
        &self,
        misses: &[MissArrival],
        summaries: &mut [ServerSummary],
        mut records: Option<&mut [KeyColumns]>,
    ) -> (StreamingStats, QuantileSketch) {
        let cfg = self.cfg;
        let coalesce = cfg.miss_relay == MissRelay::Coalesced;
        let mut db_latency = StreamingStats::new();
        let mut db_sketch = QuantileSketch::new();
        db_stage(
            misses,
            cfg.effective_db_shards(),
            cfg.params.db_service_rate(),
            coalesce,
            &mut stream_rng(cfg.seed, 2_000_000),
            |(server, idx), d, delayed| {
                db_latency.push(d);
                db_sketch.push(d);
                if coalesce {
                    let c = &mut summaries[server as usize].coalesce;
                    if delayed {
                        c.delayed_hits += 1;
                        c.wait_time += d;
                    } else {
                        c.dispatched += 1;
                    }
                }
                if let Some(records) = records.as_deref_mut() {
                    records[server as usize].set_db(idx as usize, d as f32);
                }
            },
        );
        (db_latency, db_sketch)
    }
}

/// The `Arc` cached in `slot` under `key`, or a fresh `build()` that
/// replaces it.
fn cached<K: Copy + PartialEq, T, E: std::fmt::Display>(
    slot: &mut Option<(K, Arc<T>)>,
    key: K,
    build: impl FnOnce() -> Result<T, E>,
) -> Result<Arc<T>, SimError> {
    if let Some((k, arc)) = slot {
        if *k == key {
            return Ok(Arc::clone(arc));
        }
    }
    let arc = Arc::new(build().map_err(|e| SimError::InvalidConfig(e.to_string()))?);
    *slot = Some((key, Arc::clone(&arc)));
    Ok(arc)
}

/// The hedge stage: a deterministic pass in server order after the
/// servers stage, so the thread count still cannot change the output. A
/// key whose primary latency exceeded `delay` draws a duplicate attempt
/// from the replica server `(j + 1) mod M`'s *pre-hedge* latency
/// population and keeps `min(primary, delay + replica)`. Every server's
/// `latency` summary and the returned pooled sketch are then folded from
/// its post-hedge `f32` column, so the two always describe the same
/// values, also for a server whose replica recorded no keys (its keys
/// draw no duplicates).
fn hedge_stage(
    seed: u64,
    delay: f64,
    summaries: &mut [ServerSummary],
    cells: &mut [ServerCell],
    pristine: &mut Vec<f32>,
) -> QuantileSketch {
    // Server j's replica j + 1 is still pre-hedge when j reads it; only
    // the last server's replica, server 0, has been hedged by then.
    pristine.clear();
    pristine.extend_from_slice(cells[0].cols.s());
    for (j, summary) in summaries.iter_mut().enumerate() {
        let (done, rest) = cells.split_at_mut(j + 1);
        let replica = rest.first().map_or(pristine.as_slice(), |c| c.cols.s());
        let mut rng = stream_rng(seed, 3_000_000 + j as u64);
        let ServerCell { cols, forced } = &mut done[j];
        let mut latency = StreamingStats::new();
        for (slot, &forced) in cols.s_mut().iter_mut().zip(forced.iter()) {
            let mut s = f64::from(*slot);
            if !forced && s > delay && !replica.is_empty() {
                summary.resilience.hedges_sent += 1;
                let k = (rng.next_u64() % replica.len() as u64) as usize;
                let (eff, _) = hedge_outcome(s, delay, f64::from(replica[k]));
                // A win must be observable at the f32 precision records are
                // stored at, so the counter and the records never disagree.
                let eff32 = eff as f32;
                if eff32 < *slot {
                    summary.resilience.hedges_won += 1;
                    *slot = eff32;
                    s = f64::from(eff32);
                }
            }
            latency.push(s);
        }
        // The summary describes the effective (post-hedge) latencies.
        summary.latency = latency;
    }
    let mut sketch = QuantileSketch::new();
    for cell in cells.iter() {
        sketch.extend(cell.cols.s().iter().map(|&s| f64::from(s)));
    }
    sketch
}

/// Builds the database stage's one miss stream from the per-worker
/// buffers in `(time, server, push order)` order: the buffers are
/// concatenated and sorted by `(time, origin)`. Each origin
/// `(server, idx)` is unique and `idx` rises in push order, so the order
/// does not depend on which worker held which server. The database
/// stage assigns misses to its shards round-robin in this order, so it
/// is part of the output. Buffers need not be sorted (a faulted run's
/// retries resolve out of arrival order).
fn merge_misses(workers: &[WorkerScratch], all_misses: &mut Vec<MissArrival>) {
    all_misses.clear();
    all_misses.reserve(workers.iter().map(|w| w.misses.len()).sum());
    for w in workers {
        all_misses.extend_from_slice(&w.misses);
    }
    all_misses.sort_by(|a, b| {
        a.time
            .total_cmp(&b.time)
            .then_with(|| a.origin.cmp(&b.origin))
    });
}

impl SimOutput {
    /// Keys recorded across all servers.
    #[must_use]
    pub fn total_keys(&self) -> u64 {
        self.total_keys
    }

    /// Observed per-server utilizations.
    #[must_use]
    pub fn utilization(&self) -> &[f64] {
        &self.utilization
    }

    /// Observed overall miss ratio.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        self.miss_ratio
    }

    /// Total items resident across every server's backing store at the
    /// end of the run (0 under [`MissMode::FixedRatio`]) — the cluster
    /// capacity `x` in the Ji/Quan/Tan miss-ratio asymptotic.
    #[must_use]
    pub fn cached_items(&self) -> u64 {
        self.summaries.iter().map(|s| s.cached_items).sum()
    }

    /// The load shares in force.
    #[must_use]
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// The constant network latency.
    #[must_use]
    pub fn network_latency(&self) -> f64 {
        self.network
    }

    /// Whether per-key records were retained ([`Retention::Full`]).
    #[must_use]
    pub fn has_records(&self) -> bool {
        self.server_records.is_some()
    }

    /// Per-server `(s, d)` columns.
    ///
    /// # Panics
    ///
    /// Panics under [`Retention::Summary`] — use the streaming accessors
    /// ([`Self::summary`], [`Self::server_latency_quantile`],
    /// [`Self::db_latency_stats`]) instead.
    #[must_use]
    pub fn records(&self, server: usize) -> &KeyColumns {
        &self.all_records()[server]
    }

    /// Every server's `(s, d)` columns, indexed by server.
    ///
    /// # Panics
    ///
    /// Panics under [`Retention::Summary`], as [`Self::records`] does.
    #[must_use]
    pub(crate) fn all_records(&self) -> &[KeyColumns] {
        self.server_records
            .as_deref()
            .expect("per-key records dropped (Retention::Summary); use the streaming summaries")
    }

    /// Per-server streaming summaries (always available).
    #[must_use]
    pub fn summaries(&self) -> &[ServerSummary] {
        &self.summaries
    }

    /// One server's streaming summary.
    #[must_use]
    pub fn summary(&self, server: usize) -> &ServerSummary {
        &self.summaries[server]
    }

    /// Pooled Welford statistics of per-key server latency (all servers,
    /// exact merge in server order).
    #[must_use]
    pub fn pooled_latency_stats(&self) -> StreamingStats {
        let mut pooled = StreamingStats::new();
        for s in &self.summaries {
            pooled.merge(&s.latency);
        }
        pooled
    }

    /// Pooled quantile sketch of per-key server latency (all servers).
    #[must_use]
    pub fn pooled_latency_sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Welford statistics of db latency over the missed keys.
    #[must_use]
    pub fn db_latency_stats(&self) -> &StreamingStats {
        &self.db_latency
    }

    /// Quantile sketch of db latency over the missed keys.
    #[must_use]
    pub fn db_latency_sketch(&self) -> &QuantileSketch {
        &self.db_sketch
    }

    /// Pooled ECDF of per-key **server** latency (all servers). Because
    /// server `j` naturally contributes `p_j` of the keys, this pool *is*
    /// the `T_S(1)` mixture of the paper's eq. 11.
    ///
    /// # Panics
    ///
    /// Panics when the run recorded no keys, or under
    /// [`Retention::Summary`] (use [`Self::server_latency_quantile`]).
    #[must_use]
    pub fn server_latency_ecdf(&self) -> Ecdf {
        let records = self
            .server_records
            .as_ref()
            .expect("exact ECDF needs Retention::Full; use server_latency_quantile");
        let mut all: Vec<f64> = Vec::with_capacity(self.total_keys as usize);
        for recs in records {
            all.extend(recs.s().iter().map(|&s| f64::from(s)));
        }
        Ecdf::from_samples(&all)
    }

    /// The `p`-th quantile of pooled per-key server latency: exact (ECDF
    /// order statistic) under [`Retention::Full`], sketch-answered (≤ 1%
    /// relative error, same rank convention) under [`Retention::Summary`].
    ///
    /// # Panics
    ///
    /// Panics when the run recorded no keys or `p ∉ [0, 1]`.
    #[must_use]
    pub fn server_latency_quantile(&self, p: f64) -> f64 {
        if self.server_records.is_some() {
            self.server_latency_ecdf().quantile(p)
        } else {
            self.sketch.quantile(p)
        }
    }

    /// Measured `E[T_S(N)]`: the `N/(N+1)` quantile of the pooled per-key
    /// server latency (the paper's eq. 12 estimator, §4.5: "the expected
    /// latency for an end-user request statistically equals the N/(N+1)
    /// percentile of the latency for one memcached key").
    #[must_use]
    pub fn expected_server_latency(&self, n: u64) -> f64 {
        let k = memlat_stats::max_order_quantile(n);
        self.server_latency_quantile(k)
    }

    /// Cluster-wide fault and client-resilience counters (the merge of
    /// every server's [`ServerSummary::resilience`]). All zero on a
    /// healthy run.
    #[must_use]
    pub fn resilience(&self) -> ResilienceCounters {
        let mut total = ResilienceCounters::default();
        for s in &self.summaries {
            total.merge(&s.resilience);
        }
        total
    }

    /// Cluster-wide miss-coalescing counters (the merge of every
    /// server's [`ServerSummary::coalesce`]). All zero under
    /// [`MissRelay::Independent`].
    #[must_use]
    pub fn coalesce(&self) -> CoalesceCounters {
        let mut total = CoalesceCounters::default();
        for s in &self.summaries {
            total.merge(&s.coalesce);
        }
        total
    }

    /// Fraction of recorded keys that exhausted every attempt and fell
    /// through to the database (0 on healthy runs).
    #[must_use]
    pub fn forced_miss_ratio(&self) -> f64 {
        if self.total_keys == 0 {
            0.0
        } else {
            self.resilience().forced_misses as f64 / self.total_keys as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlat_model::ModelParams;

    fn quick(seed: u64) -> SimOutput {
        let params = ModelParams::builder().build().unwrap();
        ClusterSim::run(&SimConfig::new(params).duration(0.5).warmup(0.1).seed(seed)).unwrap()
    }

    #[test]
    fn output_shape_is_consistent() {
        let out = quick(1);
        assert_eq!(out.shares().len(), 4);
        assert_eq!(out.utilization().len(), 4);
        assert_eq!(out.summaries().len(), 4);
        let sum: usize = (0..4).map(|j| out.records(j).len()).sum();
        assert_eq!(sum as u64, out.total_keys());
        // Balanced load: every server sees ~1/4 of the keys.
        for j in 0..4 {
            let frac = out.records(j).len() as f64 / out.total_keys() as f64;
            assert!((frac - 0.25).abs() < 0.03, "server {j}: {frac}");
        }
    }

    #[test]
    fn observed_quantities_match_configuration() {
        let out = quick(2);
        assert!(
            (out.miss_ratio() - 0.01).abs() < 0.004,
            "{}",
            out.miss_ratio()
        );
        for &u in out.utilization() {
            assert!((u - 0.78).abs() < 0.06, "{u}");
        }
        assert_eq!(out.network_latency(), 20e-6);
    }

    #[test]
    fn missed_keys_carry_db_latency() {
        let out = quick(3);
        let mut missed = 0;
        let mut hit = 0;
        for j in 0..4 {
            for (_, d) in out.records(j) {
                if d > 0.0 {
                    missed += 1;
                } else {
                    hit += 1;
                }
            }
        }
        assert!(missed > 0, "no misses recorded");
        assert!(hit > missed * 50, "hit/miss ratio implausible");
        // The streaming db summary counts exactly the missed keys.
        assert_eq!(out.db_latency_stats().count(), missed as u64);
        assert_eq!(out.db_latency_sketch().count(), missed as u64);
    }

    #[test]
    fn measured_ts_in_theorem1_band() {
        let out = quick(4);
        let model = memlat_model::ServerLatencyModel::new(&ModelParams::builder().build().unwrap())
            .unwrap();
        let bounds = model.product_form_bounds(150);
        let measured = out.expected_server_latency(150);
        // Generous slack: short run, high quantile.
        assert!(
            measured > bounds.lower * 0.75 && measured < bounds.upper * 1.35,
            "measured={measured} band={bounds:?}"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = quick(9);
        let b = quick(9);
        assert_eq!(a.total_keys(), b.total_keys());
        assert_eq!(a.records(0), b.records(0));
        let c = quick(10);
        assert_ne!(a.total_keys(), c.total_keys());
    }

    #[test]
    fn parallel_output_is_bit_identical_to_sequential() {
        let params = ModelParams::builder().build().unwrap();
        let base = SimConfig::new(params)
            .duration(0.5)
            .warmup(0.1)
            .seed(0xbeef);
        let seq = ClusterSim::run(&base.clone().threads(1)).unwrap();
        let par = ClusterSim::run(&base.clone().threads(4)).unwrap();
        // Raw records: every per-key pair identical.
        assert_eq!(seq.total_keys(), par.total_keys());
        for j in 0..seq.shares().len() {
            assert_eq!(seq.records(j), par.records(j), "server {j} records differ");
        }
        // Streaming summaries: bit-identical to full precision.
        assert_eq!(seq.summaries(), par.summaries());
        assert_eq!(seq.pooled_latency_sketch(), par.pooled_latency_sketch());
        assert_eq!(seq.db_latency_stats(), par.db_latency_stats());
        assert_eq!(seq.db_latency_sketch(), par.db_latency_sketch());
        assert_eq!(seq.utilization(), par.utilization());
        assert_eq!(seq.miss_ratio(), par.miss_ratio());
        assert_eq!(
            seq.expected_server_latency(150).to_bits(),
            par.expected_server_latency(150).to_bits()
        );
        // And an oversubscribed thread count changes nothing either.
        let over = ClusterSim::run(&base.threads(64)).unwrap();
        assert_eq!(seq.summaries(), over.summaries());
        assert_eq!(seq.pooled_latency_sketch(), over.pooled_latency_sketch());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_buffers() {
        // One scratch across three runs with different seeds and thread
        // counts: every output must match the fresh-buffer run exactly.
        let mut scratch = SimScratch::new();
        for (seed, threads) in [(7u64, 1usize), (8, 3), (7, 1)] {
            let params = ModelParams::builder().build().unwrap();
            let cfg = SimConfig::new(params)
                .duration(0.3)
                .warmup(0.05)
                .seed(seed)
                .threads(threads);
            let reused = ClusterSim::run_with(&cfg, &mut scratch).unwrap();
            let fresh = ClusterSim::run(&cfg).unwrap();
            assert_eq!(reused.total_keys(), fresh.total_keys());
            for j in 0..fresh.shares().len() {
                assert_eq!(reused.records(j), fresh.records(j), "server {j}");
            }
            assert_eq!(reused.summaries(), fresh.summaries());
            assert_eq!(
                reused.pooled_latency_sketch(),
                fresh.pooled_latency_sketch()
            );
            assert_eq!(reused.db_latency_stats(), fresh.db_latency_stats());
            assert_eq!(reused.miss_ratio(), fresh.miss_ratio());
        }
    }

    #[test]
    fn summary_retention_matches_full_statistics() {
        let params = ModelParams::builder().build().unwrap();
        let base = SimConfig::new(params).duration(0.5).warmup(0.1).seed(21);
        let full = ClusterSim::run(&base).unwrap();
        let lean = ClusterSim::run(&base.retention(Retention::Summary)).unwrap();
        assert!(full.has_records());
        assert!(!lean.has_records());
        // Same simulation, same summaries.
        assert_eq!(full.summaries(), lean.summaries());
        assert_eq!(full.pooled_latency_sketch(), lean.pooled_latency_sketch());
        assert_eq!(full.total_keys(), lean.total_keys());
        assert_eq!(full.miss_ratio(), lean.miss_ratio());
        assert_eq!(full.db_latency_stats(), lean.db_latency_stats());
        // Sketch quantiles agree with the exact ECDF within the bound.
        for p in [0.5, 0.9, 0.99, memlat_stats::max_order_quantile(150)] {
            let exact = full.server_latency_ecdf().quantile(p);
            let approx = lean.server_latency_quantile(p);
            assert!(
                (approx - exact).abs() <= 0.011 * exact,
                "p={p}: approx={approx} exact={exact}"
            );
        }
        // Pooled Welford mean is exact (f32 record rounding aside).
        let pooled = lean.pooled_latency_stats();
        assert_eq!(pooled.count(), lean.total_keys());
        let exact_mean = full.server_latency_ecdf().mean();
        assert!((pooled.mean() / exact_mean - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "Retention::Summary")]
    fn summary_retention_records_panics() {
        let params = ModelParams::builder().build().unwrap();
        let out = ClusterSim::run(
            &SimConfig::new(params)
                .duration(0.3)
                .seed(5)
                .retention(Retention::Summary),
        )
        .unwrap();
        let _ = out.records(0);
    }

    #[test]
    fn healthy_run_reports_no_resilience_activity() {
        let out = quick(6);
        assert!(!out.resilience().any());
        assert_eq!(out.forced_miss_ratio(), 0.0);
    }

    #[test]
    fn crashes_and_retries_surface_in_output() {
        use crate::fault::{ClientPolicy, FaultPlan, RetryPolicy};
        let params = ModelParams::builder().build().unwrap();
        let cfg = SimConfig::new(params)
            .duration(0.4)
            .warmup(0.1)
            .seed(31)
            .fault_plan(
                FaultPlan::none()
                    .crash(1, 0.2, 0.3)
                    .slowdown(2, 0.2, 0.4, 3.0),
            )
            .client(
                ClientPolicy::none()
                    .timeout(5e-3)
                    .retry(RetryPolicy::default()),
            );
        let out = ClusterSim::run(&cfg).unwrap();
        let total = out.resilience();
        assert!(total.refused > 0, "crash produced no refusals");
        assert!(total.retries > 0, "no retries were issued");
        assert!((total.downtime - 0.1).abs() < 1e-12);
        assert!((total.degraded_time - 0.2).abs() < 1e-12);
        // Only the crashed server refused; only the slowed one degraded.
        assert_eq!(out.summary(0).resilience.refused, 0);
        assert!(out.summary(1).resilience.refused > 0);
        assert!((out.summary(2).resilience.degraded_time - 0.2).abs() < 1e-12);
        for j in [0, 1, 3] {
            assert_eq!(out.summary(j).resilience.degraded_time, 0.0);
        }
        // Forced misses carry a db latency like regular misses, so the
        // db stage saw misses + forced keys.
        assert_eq!(
            out.db_latency_stats().count(),
            out.summaries()
                .iter()
                .map(|s| s.counters.misses)
                .sum::<u64>()
                + total.forced_misses
        );
        assert_eq!(
            out.forced_miss_ratio(),
            total.forced_misses as f64 / out.total_keys() as f64
        );
    }

    #[test]
    fn hedging_reduces_tail_against_a_slow_server() {
        use crate::fault::{ClientPolicy, FaultPlan};
        let params = ModelParams::builder().build().unwrap();
        let base = SimConfig::new(params)
            .duration(0.4)
            .warmup(0.1)
            .seed(32)
            .fault_plan(FaultPlan::none().slowdown(0, 0.1, 0.5, 5.0));
        let plain = ClusterSim::run(&base).unwrap();
        let delay = plain.server_latency_quantile(0.95);
        let hedged = ClusterSim::run(&base.client(ClientPolicy::none().hedge(delay))).unwrap();
        let total = hedged.resilience();
        assert!(total.hedges_sent > 0);
        assert!(total.hedges_won > 0);
        assert!(total.hedges_won <= total.hedges_sent);
        // Hedging is a pathwise min against the replica draw: the p99
        // can only improve, and against one slow server it must.
        let p99_plain = plain.server_latency_quantile(0.99);
        let p99_hedged = hedged.server_latency_quantile(0.99);
        assert!(
            p99_hedged < p99_plain,
            "hedged p99 {p99_hedged} !< plain {p99_plain}"
        );
    }

    #[test]
    fn hedging_under_summary_retention_matches_full() {
        // Hedging needs the per-key columns internally even when the
        // caller asked for Summary retention; the summaries must come
        // out identical either way, with no records in the output.
        use crate::fault::{ClientPolicy, FaultPlan};
        let params = ModelParams::builder().build().unwrap();
        let base = SimConfig::new(params)
            .duration(0.3)
            .warmup(0.05)
            .seed(33)
            .fault_plan(FaultPlan::none().slowdown(0, 0.1, 0.25, 4.0))
            .client(ClientPolicy::none().hedge(1e-3));
        let full = ClusterSim::run(&base).unwrap();
        let lean = ClusterSim::run(&base.retention(Retention::Summary)).unwrap();
        assert!(!lean.has_records());
        assert_eq!(full.summaries(), lean.summaries());
        assert_eq!(full.pooled_latency_sketch(), lean.pooled_latency_sketch());
        assert_eq!(full.resilience(), lean.resilience());
        assert!(lean.resilience().hedges_sent > 0);
    }

    #[test]
    fn hedged_pooled_sketch_matches_post_hedge_records() {
        // Server 1 has no keys, so server 0's replica population is empty
        // and the hedge pass draws no duplicates for it; the pooled sketch
        // and every server's latency summary must still be folded from
        // its post-hedge records, server 0's included.
        use crate::fault::{ClientPolicy, FaultPlan};
        let params = ModelParams::builder()
            .load(memlat_model::LoadDistribution::Custom(vec![
                0.4, 0.0, 0.3, 0.3,
            ]))
            .total_key_rate(100_000.0)
            .build()
            .unwrap();
        let cfg = SimConfig::new(params)
            .duration(0.3)
            .warmup(0.05)
            .seed(34)
            .fault_plan(FaultPlan::none().slowdown(2, 0.1, 0.25, 4.0))
            .client(ClientPolicy::none().hedge(1e-4));
        let out = ClusterSim::run(&cfg).unwrap();
        assert!(out.resilience().hedges_won > 0);
        assert!(!out.records(0).is_empty());
        assert!(out.records(1).is_empty());
        let mut want = QuantileSketch::new();
        for j in 0..4 {
            let column = out.records(j).s().iter().map(|&s| f64::from(s));
            want.extend(column.clone());
            let mut latency = StreamingStats::new();
            column.for_each(|s| latency.push(s));
            assert_eq!(out.summary(j).latency, latency, "server {j}");
        }
        assert_eq!(out.pooled_latency_sketch(), &want);
        assert_eq!(out.pooled_latency_sketch().count(), out.total_keys());
    }

    #[test]
    fn zero_share_server_records_nothing() {
        let params = ModelParams::builder()
            .load(memlat_model::LoadDistribution::Custom(vec![
                0.5, 0.5, 0.0, 0.0,
            ]))
            .total_key_rate(100_000.0)
            .build()
            .unwrap();
        let out = ClusterSim::run(&SimConfig::new(params).duration(0.3).seed(5)).unwrap();
        assert!(out.records(2).is_empty());
        assert!(out.records(3).is_empty());
        assert!(!out.records(0).is_empty());
        assert!(out.summary(2).latency.count() == 0);
        assert_eq!(out.summary(2).counters, ServerCounters::default());
    }

    #[test]
    fn miss_merge_orders_by_time_then_server_then_push_order() {
        // Origins carry `(server, push position)`, so the merged order
        // reads off directly. Server 0 pushes two misses at t = 2;
        // server 1 ties both at t = 2; server 2 is unsorted, as a faulted
        // run's retries leave it; server 3 is empty. The buffers follow
        // the round-robin layout of two worker threads: worker 0 holds
        // servers 0 and 2, worker 1 servers 1 and 3.
        let worker = |shards: [(u32, &[f64]); 2]| WorkerScratch {
            misses: shards
                .iter()
                .flat_map(|&(server, times)| {
                    times.iter().enumerate().map(move |(i, &time)| MissArrival {
                        time,
                        origin: (server, i as u32),
                        key: NO_KEY,
                    })
                })
                .collect(),
            ..WorkerScratch::default()
        };
        let workers = [
            worker([(0, &[1.0, 2.0, 2.0, 4.0]), (2, &[3.0, 0.5, 2.0, 1.0])]),
            worker([(1, &[2.0, 3.0]), (3, &[])]),
        ];
        let mut merged = vec![MissArrival {
            time: 9.0,
            origin: (9, 9),
            key: 9,
        }];
        merge_misses(&workers, &mut merged);
        let order: Vec<(u32, u32)> = merged.iter().map(|m| m.origin).collect();
        assert_eq!(
            order,
            [
                (2, 1),
                (0, 0),
                (2, 3),
                (0, 1),
                (0, 2),
                (1, 0),
                (2, 2),
                (1, 1),
                (2, 0),
                (0, 3),
            ]
        );
        // The `(time, server, push order)` key, spelled out.
        let mut keyed: Vec<(f64, u32, u32)> = workers
            .iter()
            .flat_map(|w| w.misses.iter().map(|m| (m.time, m.origin.0, m.origin.1)))
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let want: Vec<(u32, u32)> = keyed.iter().map(|&(_, j, i)| (j, i)).collect();
        assert_eq!(order, want);
    }
}
