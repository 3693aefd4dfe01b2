//! One simulated memcached server.
//!
//! The per-key hot path is fully streaming: batches are drawn lazily
//! from the seed-derived RNG stream (no ahead-of-time trace
//! materialization), each resolved key is handed to a caller-supplied
//! [`RecordSink`] ([`simulate_server_streaming_with`]), and the whole
//! pipeline — gap law, batch size, service draw, miss decision — is
//! monomorphized over the RNG type so nothing in the loop goes through
//! a vtable.
//!
//! On healthy runs (no faults, no client timeout) the loop is
//! additionally **block-batched**: keys are staged in structure-of-arrays
//! lanes ([`BlockScratch`]) of [`ServerSimParams::block`] keys, raw
//! uniforms are banked per key, and the uniform→law transforms and the
//! FCFS Lindley recursion run as tight slice scans. Fixed-ratio runs
//! serve their warm-up keys on the lanes up to the warm-up boundary,
//! then hand whole measured blocks to [`RecordSink::record_block`]
//! (`fixed_lanes`). Cache-backed
//! runs make each key's store lookup while the arrival driver stages it,
//! in stream order, and emit keyed records one at a time; their
//! horizon fix-ups are documented on the LRU lanes (`lru_lanes`).
//! Faulted and timeout runs take the scalar attempt path.
//! Arrival generation itself is block-shaped too: one driver
//! ([`BatchArrivals::fill_block_speculative`]) stages every gap law. For
//! the exponential and GP laws it banks raw gap bits, transforms them
//! through the SIMD kernels, prefix-sums the times off a carried clock,
//! and patches the horizon boundary by deterministic
//! over-generate-and-trim — so the serial `t += gap` recurrence no
//! longer gates throughput; the other laws draw each gap in place.
//! Blocks consume the RNG stream in exactly the scalar order, so block
//! size can never change the output — only the wall clock.

use memlat_des::fcfs::FcfsStation;
use memlat_des::metrics::{ResilienceCounters, ServerCounters};
use memlat_dist::{GapLaw, ParamError};
use memlat_workload::retry::exponential_backoff;
use memlat_workload::{
    arrival::{ArrivalScratch, BatchArrivals},
    RetryQueue, ZipfPopularity,
};
use rand::Rng;
use rand::RngCore;

use crate::config::MissMode;
use crate::database::NO_KEY;
use crate::fault::{ClientPolicy, ServerFaults};
use crate::miss::{build_miss_state, LruBackedMiss, MissState, RoutedHandle};

/// One key's outcome at a memcached server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyRecord {
    /// Arrival time of the key's first attempt.
    pub arrival: f64,
    /// Time the key resolved: service finished for a served key, the
    /// final failure was detected for a forced miss.
    pub completion: f64,
    /// Processing latency at the server (`s_i` in the paper): resolution
    /// time minus first arrival, so retries and backoff delays count.
    pub server_latency: f64,
    /// Whether the key missed the cache.
    pub missed: bool,
    /// The key identity sampled by a cache-backed miss decision, or
    /// [`NO_KEY`] when none exists (fixed-ratio coin flips, forced
    /// misses). Feeds the coalescing miss relay.
    pub key: u64,
    /// Whether the key exhausted every attempt (timeouts/refusals) and
    /// fell through to the database — a forced miss. Zero on healthy runs.
    pub forced: bool,
}

/// The streaming aggregates of one server's run.
#[derive(Debug, Clone, Copy)]
pub struct ServerRunStats {
    /// Observed utilization (busy time ÷ horizon, including warm-up).
    pub utilization: f64,
    /// Keys recorded and keys missed over the measured window; their
    /// ratio is the observed miss ratio, and keys ÷ duration the key
    /// rate.
    pub counters: ServerCounters,
    /// Fault and client-resilience counters (all zero on healthy runs).
    pub resilience: ResilienceCounters,
    /// Items resident in the backing store at the end of the run (0
    /// under [`MissMode::FixedRatio`]).
    pub cached_items: u64,
}

/// Parameters for one server's run.
pub struct ServerSimParams<'a> {
    /// Inter-batch gap law (one of the closed preset shapes, so the
    /// per-batch draw is a static match — see [`GapLaw`]).
    pub interarrival: GapLaw,
    /// Concurrency probability `q`.
    pub concurrency: f64,
    /// Per-key service rate `μ_S`.
    pub service_rate: f64,
    /// Model miss ratio `r` (used by [`MissMode::FixedRatio`]).
    pub miss_ratio: f64,
    /// Miss decision mode.
    pub miss_mode: &'a MissMode,
    /// Pre-built Zipf popularity for [`MissMode::CacheBacked`] runs.
    /// `None` builds one from the mode's config; cluster sweeps pass a
    /// shared handle so the O(keyspace) alias table, built by the first
    /// draw, is built once per `(keyspace, skew)` instead of once per
    /// server per sweep point. Routed runs never draw from it.
    pub popularity: Option<std::sync::Arc<ZipfPopularity>>,
    /// This server's slice of the cluster's consistent-hash routing
    /// table. Required when the cache config asks for
    /// [`crate::CacheRouting::ConsistentHash`] — the ring spans servers,
    /// so only the cluster layer can build it. `None` otherwise.
    pub routed: Option<RoutedHandle>,
    /// Warm-up seconds (records discarded).
    pub warmup: f64,
    /// Measured seconds after warm-up.
    pub duration: f64,
    /// This server's compiled fault timeline (empty = healthy).
    pub faults: ServerFaults,
    /// Client resilience policy (passive by default).
    pub client: ClientPolicy,
    /// Sampling block size (≥ 1). Above 1, healthy runs (no faults, no
    /// timeout), fixed-ratio and cache-backed alike, take the
    /// block-batched fast path; `1` forces the scalar loop. Both consume
    /// the RNG stream in the same order, so the choice is invisible in
    /// the output.
    pub block: usize,
}

/// A resolved block of keys, structure-of-arrays: lane `i` of every
/// slice describes the same key, in arrival order. Blocks are only
/// produced on healthy fixed-ratio runs, so every key is first-attempt
/// and never forced.
#[derive(Debug)]
pub struct KeyBlock<'a> {
    /// Arrival times.
    pub arrival: &'a [f64],
    /// Departure (service completion) times.
    pub completion: &'a [f64],
    /// Server latencies (`completion - arrival`).
    pub latency: &'a [f64],
    /// Cache-miss flags.
    pub missed: &'a [bool],
}

impl KeyBlock<'_> {
    /// Number of keys in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrival.len()
    }

    /// Whether the block is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrival.is_empty()
    }
}

/// Where resolved keys go: one at a time on the scalar path, a lane
/// block at a time on the batched path.
///
/// The default [`RecordSink::record_block`] just replays the block
/// through [`RecordSink::record`], reconstructing the exact
/// [`KeyRecord`] the scalar loop would have emitted — sinks override it
/// only to exploit the slice shape (bulk Welford/sketch pushes, column
/// appends).
pub trait RecordSink {
    /// Consumes one resolved key.
    fn record(&mut self, rec: &KeyRecord);

    /// Consumes a resolved block of keys (healthy, first-attempt keys
    /// only — see [`KeyBlock`]).
    fn record_block(&mut self, block: &KeyBlock<'_>) {
        for i in 0..block.len() {
            self.record(&KeyRecord {
                arrival: block.arrival[i],
                completion: block.completion[i],
                server_latency: block.latency[i],
                missed: block.missed[i],
                // Blocks exist only on the fixed-ratio path, which
                // carries no key identity.
                key: NO_KEY,
                forced: false,
            });
        }
    }
}

impl<T: RecordSink + ?Sized> RecordSink for &mut T {
    fn record(&mut self, rec: &KeyRecord) {
        (**self).record(rec);
    }

    fn record_block(&mut self, block: &KeyBlock<'_>) {
        (**self).record_block(block);
    }
}

/// Collects every record (blocks replay through
/// [`RecordSink::record`] via the default [`RecordSink::record_block`]).
impl RecordSink for Vec<KeyRecord> {
    fn record(&mut self, rec: &KeyRecord) {
        self.push(*rec);
    }
}

/// Reusable structure-of-arrays lanes for the block-batched hot path.
/// Holding one per server (e.g. in [`crate::SimScratch`]) means a sweep
/// allocates the lanes once and reuses them at every point.
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// Arrival time of each staged key.
    arrival: Vec<f64>,
    /// Speculative arrival-pipeline lanes: banked gap bits, transformed
    /// gaps, and the kept batches' times/sizes (see
    /// [`BatchArrivals::fill_block_speculative`]).
    arrival_lanes: ArrivalScratch,
    /// Raw service-draw bits, banked in stream order.
    svc_bits: Vec<u64>,
    /// Raw miss-draw bits (empty when the miss ratio is 0).
    miss_bits: Vec<u64>,
    /// Transformed service times.
    service: Vec<f64>,
    /// Departure times from the Lindley scan.
    depart: Vec<f64>,
    /// Server latencies (`depart - arrival`).
    latency: Vec<f64>,
    /// Miss decisions.
    missed: Vec<bool>,
    /// Key ids the LRU lanes' decisions sampled.
    keys: Vec<u64>,
    /// Per staged batch on the LRU lanes: its keys' draws beyond
    /// `LRU_KEY_DRAWS`.
    batch_extra_draws: Vec<u64>,
    /// Per staged batch on the LRU lanes: resident store items after it.
    batch_items: Vec<u64>,
}

impl BlockScratch {
    /// Creates empty lanes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the staging lanes, keeping their allocations.
    fn clear(&mut self) {
        self.arrival.clear();
        self.svc_bits.clear();
        self.miss_bits.clear();
        self.missed.clear();
        self.keys.clear();
        self.batch_extra_draws.clear();
        self.batch_items.clear();
    }

    /// Serves the staged keys: transforms the banked service bits
    /// through the SIMD-dispatched kernel (bit-identical to the scalar
    /// `-dln(u)/μ` the attempt path draws), then runs the Lindley scan
    /// into the departure lane.
    fn serve(&mut self, service_rate: f64, station: &mut FcfsStation) {
        self.service.clear();
        memlat_dist::simd::exp_from_bits(&self.svc_bits, service_rate, &mut self.service);
        self.depart.clear();
        self.depart.resize(self.arrival.len(), 0.0);
        station.submit_block(&self.arrival, &self.service, &mut self.depart);
    }
}

/// One key mid-flight through its attempts.
#[derive(Clone, Copy)]
struct PendingKey {
    /// Arrival time of the first attempt.
    first_arrival: f64,
    /// Attempts already issued (and failed).
    attempts: u32,
    /// Whether the key counts toward statistics (first arrival past
    /// warm-up).
    measured: bool,
}

/// Mutable simulation state threaded through attempt processing.
///
/// Resolved keys flow straight into `sink` — nothing is buffered here,
/// so a run's peak memory no longer scales with its key count.
struct LoopState<S> {
    station: FcfsStation,
    retry_q: RetryQueue<PendingKey>,
    sink: S,
    recorded: u64,
    misses: u64,
    resilience: ResilienceCounters,
}

impl<S: RecordSink> LoopState<S> {
    #[inline]
    fn emit(&mut self, rec: KeyRecord) {
        self.recorded += 1;
        self.sink.record(&rec);
    }
}

/// Environment (read-only knobs) for attempt processing.
struct AttemptEnv<'a> {
    service_rate: f64,
    cache_backed: bool,
    client: ClientPolicy,
    faults: &'a ServerFaults,
}

/// Handles a failed attempt detected at `detect`: schedule a backoff
/// retry if the budget allows, else record a forced miss.
fn fail_attempt<S: RecordSink, R: RngCore>(
    detect: f64,
    key: PendingKey,
    st: &mut LoopState<S>,
    env: &AttemptEnv<'_>,
    rng: &mut R,
) {
    let attempts = key.attempts + 1;
    if attempts < env.client.max_attempts() {
        let rp = env
            .client
            .retry
            .expect("max_attempts > 1 implies a retry policy");
        let mut r = &mut *rng;
        let delay =
            exponential_backoff(rp.base_backoff, rp.multiplier, rp.jitter, attempts, &mut r);
        if key.measured {
            st.resilience.retries += 1;
        }
        st.retry_q
            .push(detect + delay, PendingKey { attempts, ..key });
    } else if key.measured {
        // Graceful degradation: the key falls through to the database.
        st.resilience.forced_misses += 1;
        st.emit(KeyRecord {
            arrival: key.first_arrival,
            completion: detect,
            server_latency: detect - key.first_arrival,
            missed: false,
            // No key was ever sampled (every attempt failed before the
            // miss decision), so the forced database trip never
            // coalesces.
            key: NO_KEY,
            forced: true,
        });
    }
}

/// Processes one attempt of one key arriving at `t`.
///
/// On the healthy path (no faults scheduled, passive client) this draws
/// exactly the random variates of the pre-fault simulator — one service
/// sample, then the miss decision — so an empty [`crate::FaultPlan`]
/// is bit-identical to it.
#[inline]
fn process_attempt<S: RecordSink, R: RngCore>(
    t: f64,
    key: PendingKey,
    st: &mut LoopState<S>,
    decider: &mut MissState,
    env: &AttemptEnv<'_>,
    rng: &mut R,
) {
    // A crashed server refuses the connection at the arrival instant:
    // no service is drawn, failure is detected immediately.
    if env.faults.crashed_at(t) {
        if key.measured {
            st.resilience.refused += 1;
        }
        fail_attempt(t, key, st, env, rng);
        return;
    }
    // Outside every slowdown window the factor is exactly 1.
    let svc = -memlat_dist::simd::dln(memlat_dist::open_unit(rng)) / env.service_rate
        * env.faults.slow_factor_at(t);
    let done = st.station.submit(t, svc);
    if let Some(timeout) = env.client.timeout {
        if done.sojourn() > timeout {
            // The client abandons at t + timeout; the server still
            // wastes the full service time on the dead request.
            if key.measured {
                st.resilience.timeouts += 1;
            }
            fail_attempt(t + timeout, key, st, env, rng);
            return;
        }
    }
    if key.measured {
        let (missed, key_id) = decider.decide(done.departure, rng);
        if missed {
            st.misses += 1;
        }
        st.emit(KeyRecord {
            arrival: key.first_arrival,
            completion: done.departure,
            server_latency: done.departure - key.first_arrival,
            missed,
            key: key_id,
            forced: false,
        });
    } else if env.cache_backed {
        // Let the cache warm during warm-up without recording.
        let _ = decider.decide(done.departure, rng);
    }
}

/// Simulates one memcached server, streaming each resolved key into
/// `sink`: batch arrivals → FCFS exp(μ_S) service → miss decision per
/// key, with scheduled faults and client retries merged into the
/// arrival stream in global time order. Eligible runs stage blocks in
/// the caller's reusable [`BlockScratch`].
///
/// Records reach the sink in resolution-processing order (post-warm-up
/// only; identical to arrival order on healthy runs). The function
/// allocates no per-key memory.
///
/// # Errors
///
/// Returns [`ParamError`] when the miss mode's parameters are invalid.
pub fn simulate_server_streaming_with<S, R>(
    p: ServerSimParams<'_>,
    rng: &mut R,
    scratch: &mut BlockScratch,
    sink: S,
) -> Result<ServerRunStats, ParamError>
where
    S: RecordSink,
    R: RngCore + Clone,
{
    let mut arrivals = BatchArrivals::new(p.interarrival.clone(), p.concurrency)?;
    let mut decider = build_miss_state(
        p.miss_mode,
        p.miss_ratio,
        p.popularity.as_ref(),
        p.routed.as_ref(),
    )?;
    let horizon = p.warmup + p.duration;
    let env = AttemptEnv {
        service_rate: p.service_rate,
        cache_backed: decider.fixed_ratio().is_none(),
        client: p.client,
        faults: &p.faults,
    };
    let mut st = LoopState {
        station: FcfsStation::new(),
        retry_q: RetryQueue::new(),
        sink,
        recorded: 0,
        misses: 0,
        resilience: ResilienceCounters::default(),
    };

    // The block path needs every staged key to take the straight-line
    // serve→decide route: no crash/slowdown windows and no timeout (both
    // can fail an attempt mid-block, and without them no retry is ever
    // scheduled).
    let use_block = p.block > 1 && p.faults.is_empty() && p.client.timeout.is_none();
    let mut kept_items = None;
    if use_block {
        match &mut decider {
            MissState::Fixed(f) => fixed_lanes(f.ratio(), &mut arrivals, &p, rng, scratch, &mut st),
            MissState::Lru(lru) => {
                kept_items = Some(lru_lanes(lru, &mut arrivals, &p, rng, scratch, &mut st));
            }
        }
    } else {
        loop {
            let (t, batch) = arrivals.next_batch_with(rng);
            if t >= horizon {
                break;
            }
            // Replay retries due up to (and at) this batch's arrival first,
            // keeping the station's arrival stream time-ordered.
            while let Some((u, key)) = st.retry_q.pop_before(t) {
                process_attempt(u, key, &mut st, &mut decider, &env, rng);
            }
            let fresh = PendingKey {
                first_arrival: t,
                attempts: 0,
                measured: t >= p.warmup,
            };
            for _ in 0..batch {
                process_attempt(t, fresh, &mut st, &mut decider, &env, rng);
            }
        }
    }
    // Fresh traffic stopped at the horizon; drain in-flight retries so
    // every issued key resolves (served or forced) — conservation. (The
    // block path schedules none; the queue is already empty there.)
    while let Some((u, key)) = st.retry_q.pop() {
        process_attempt(u, key, &mut st, &mut decider, &env, rng);
    }

    // The LRU lanes report the store as of the last kept key: their
    // speculative tail may have touched it past the horizon.
    let cached_items = kept_items.unwrap_or_else(|| decider.cached_items());
    let mut resilience = st.resilience;
    resilience.downtime = p.faults.downtime(horizon);
    resilience.degraded_time = p.faults.degraded_time(horizon);
    Ok(ServerRunStats {
        // Tiny bias: utilization uses the full horizon (warm-up included).
        utilization: st.station.utilization(horizon).min(1.0),
        counters: ServerCounters {
            jobs: st.recorded,
            misses: st.misses,
        },
        resilience,
        cached_items,
    })
}

/// The fixed-ratio block lanes, in two phases. Warm-up keys draw only
/// their service uniform (no miss uniform, no record): the arrival driver
/// runs to the warm-up boundary a block at a time, banking each key's
/// service bits, and the block is served and dropped. The batch that
/// crosses the boundary (its gap and size drawn, its keys not) seeds the
/// measured phase, so blocks never straddle it. Measured keys then go a
/// block at a time: their service and miss bits are banked in stream
/// order, the transforms and the Lindley scan run as slice scans, and the
/// block reaches [`RecordSink::record_block`].
fn fixed_lanes<S: RecordSink, R: RngCore + Clone>(
    fixed_r: f64,
    arrivals: &mut BatchArrivals,
    p: &ServerSimParams<'_>,
    rng: &mut R,
    scratch: &mut BlockScratch,
    st: &mut LoopState<S>,
) {
    let horizon = p.warmup + p.duration;
    let draw_miss = fixed_r > 0.0;
    let crossing = loop {
        scratch.clear();
        let BlockScratch {
            arrival,
            arrival_lanes,
            svc_bits,
            ..
        } = &mut *scratch;
        arrivals.fill_block_speculative(rng, p.warmup, p.block, 1, arrival_lanes, |batch, rng| {
            for _ in 0..batch {
                svc_bits.push(rng.next_u64());
            }
        });
        expand_arrivals(arrival_lanes, arrival);
        svc_bits.truncate(arrival.len());
        // Set only by the fill that crossed the warm-up boundary.
        let crossing = arrival_lanes
            .crossing_size()
            .map(|batch| (arrivals.clock(), batch));
        scratch.serve(p.service_rate, &mut st.station);
        if let Some(crossing) = crossing {
            break crossing;
        }
    };
    let mut pending = (crossing.0 < horizon).then_some(crossing);
    let mut done = pending.is_none();
    let key_draws = 1 + usize::from(draw_miss);
    while !done {
        scratch.clear();
        // Stage ≥ block keys (a batch is never split), banking the
        // raw bits of each key's draws in exactly the scalar order:
        // service uniform, then — when r > 0 — the miss uniform. The
        // batch that crossed the warm-up boundary seeds the first
        // block; the rest come from the block arrival driver.
        if let Some((t, batch)) = pending.take() {
            for _ in 0..batch {
                scratch.arrival.push(t);
                scratch.svc_bits.push(rng.next_u64());
                if draw_miss {
                    scratch.miss_bits.push(rng.next_u64());
                }
            }
        }
        if scratch.arrival.len() < p.block {
            // The driver leaves the RNG at exactly the scalar stream
            // position, rewinding past any speculative tail.
            let BlockScratch {
                arrival,
                arrival_lanes,
                svc_bits,
                miss_bits,
                ..
            } = &mut *scratch;
            done = arrivals.fill_block_speculative(
                rng,
                horizon,
                p.block - arrival.len(),
                key_draws,
                arrival_lanes,
                |batch, rng| {
                    for _ in 0..batch {
                        svc_bits.push(rng.next_u64());
                        if draw_miss {
                            miss_bits.push(rng.next_u64());
                        }
                    }
                },
            );
            // Expand kept batches into the per-key arrival lane,
            // then drop the over-generated tail of the key lanes.
            expand_arrivals(arrival_lanes, arrival);
            if done {
                svc_bits.truncate(arrival.len());
                if draw_miss {
                    miss_bits.truncate(arrival.len());
                }
            }
        }
        let n = scratch.arrival.len();
        if n == 0 {
            break;
        }
        scratch.serve(p.service_rate, &mut st.station);
        scratch.latency.clear();
        scratch.latency.extend(
            scratch
                .arrival
                .iter()
                .zip(&scratch.depart)
                .map(|(&a, &d)| d - a),
        );
        if draw_miss {
            scratch.missed.extend(
                scratch
                    .miss_bits
                    .iter()
                    .map(|&b| memlat_dist::open_unit_from_bits(b) < fixed_r),
            );
        } else {
            scratch.missed.resize(n, false);
        }
        st.recorded += n as u64;
        st.misses += scratch.missed.iter().map(|&m| u64::from(m)).sum::<u64>();
        st.sink.record_block(&KeyBlock {
            arrival: &scratch.arrival,
            completion: &scratch.depart,
            latency: &scratch.latency,
            missed: &scratch.missed,
        });
    }
}

/// Raw `next_u64` draws each LRU-lane key always makes: the service
/// uniform and the key draw's first uniform. A miss adds the value-size
/// draw, and rejection-inversion may add key draws.
const LRU_KEY_DRAWS: usize = 2;

/// The LRU-backed block lanes: one [`BatchArrivals::fill_block_speculative`]
/// pass from t = 0 to the horizon, warm-up keys included — a warm-up key
/// draws exactly what a measured key draws, so no scalar warm-up is
/// needed. While the driver stages keys, its `draw_keys` closure banks
/// each key's service bits and runs its miss decision in stream order
/// (exact because [`LruBackedMiss`] never stores an expiring item, so
/// the decision cannot depend on the departure time it has not got yet).
/// The service transform and the Lindley scan then run as slice scans,
/// and keys that arrived after warm-up reach [`RecordSink::record`] with
/// their key ids ([`KeyBlock`] has no key lane).
///
/// Two fix-ups keep a horizon crossing exact. The driver rewinds and
/// replays [`LRU_KEY_DRAWS`] per kept key, so the kept keys' remaining
/// draws (counted per batch) are replayed here. And the speculative
/// tail's decisions already touched the store, so the store's resident
/// items are returned as of the last kept key.
fn lru_lanes<S: RecordSink, R: RngCore + Clone>(
    decider: &mut LruBackedMiss,
    arrivals: &mut BatchArrivals,
    p: &ServerSimParams<'_>,
    rng: &mut R,
    scratch: &mut BlockScratch,
    st: &mut LoopState<S>,
) -> u64 {
    let horizon = p.warmup + p.duration;
    let mut items = decider.cached_items();
    loop {
        scratch.clear();
        let BlockScratch {
            arrival,
            arrival_lanes,
            svc_bits,
            keys,
            missed,
            batch_extra_draws,
            batch_items,
            ..
        } = &mut *scratch;
        let done = arrivals.fill_block_speculative(
            rng,
            horizon,
            p.block,
            LRU_KEY_DRAWS,
            arrival_lanes,
            |batch, rng| {
                let mut counted = CountingRng { rng, draws: 0 };
                for _ in 0..batch {
                    svc_bits.push(counted.rng.next_u64());
                    // Any `now` decides alike: no stored item expires.
                    let (m, k) = decider.decide(0.0, &mut counted);
                    missed.push(m);
                    keys.push(k);
                }
                // The key draws' first uniforms are in LRU_KEY_DRAWS.
                batch_extra_draws.push(counted.draws - batch);
                batch_items.push(decider.cached_items());
            },
        );
        expand_arrivals(arrival_lanes, arrival);
        let n = arrival.len();
        let kept_batches = arrival_lanes.sizes().len();
        if batch_items.len() > kept_batches {
            // A crossing with a speculative tail: the driver rewound to
            // the block's start and replayed LRU_KEY_DRAWS per kept key.
            let extra: u64 = batch_extra_draws[..kept_batches].iter().sum();
            for _ in 0..extra {
                rng.next_u64();
            }
            svc_bits.truncate(n);
            keys.truncate(n);
            missed.truncate(n);
        }
        if kept_batches > 0 {
            items = batch_items[kept_batches - 1];
        }
        if n == 0 {
            break;
        }
        scratch.serve(p.service_rate, &mut st.station);
        let first = scratch.arrival.partition_point(|&a| a < p.warmup);
        for i in first..n {
            let (arrival, completion) = (scratch.arrival[i], scratch.depart[i]);
            let missed = scratch.missed[i];
            st.misses += u64::from(missed);
            st.emit(KeyRecord {
                arrival,
                completion,
                server_latency: completion - arrival,
                missed,
                key: scratch.keys[i],
                forced: false,
            });
        }
        if done {
            break;
        }
    }
    items
}

/// Expands kept batches into the per-key arrival lane.
fn expand_arrivals(lanes: &ArrivalScratch, arrival: &mut Vec<f64>) {
    for (&t, &b) in lanes.times().iter().zip(lanes.sizes()) {
        arrival.extend(std::iter::repeat_n(t, b as usize));
    }
}

/// Counts the raw `next_u64` draws made through it — the LRU lanes'
/// record of the draws a key makes beyond [`LRU_KEY_DRAWS`]. Every draw
/// on the decision path is a `next_u64`; `next_u32` and `fill_bytes` are
/// defined through it, so the count is always the stream position.
struct CountingRng<'a, R: ?Sized> {
    rng: &'a mut R,
    draws: u64,
}

impl<R: RngCore + ?Sized> RngCore for CountingRng<'_, R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Draws one exponential sample at `rate`: the per-key service draw of
/// the attempt path (`-dln(u)/rate` over one open-unit uniform).
pub fn exp_sample(rate: f64, rng: &mut impl Rng) -> f64 {
    -memlat_dist::simd::dln(memlat_dist::open_unit(rng)) / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, RetryPolicy};
    use memlat_dist::GeneralizedPareto;
    use memlat_workload::facebook;
    use rand::SeedableRng;

    fn healthy_params(duration: f64) -> ServerSimParams<'static> {
        ServerSimParams {
            interarrival: GapLaw::from(facebook::interarrival().unwrap()),
            concurrency: facebook::CONCURRENCY_Q,
            service_rate: facebook::SERVICE_RATE,
            miss_ratio: facebook::MISS_RATIO,
            miss_mode: &MissMode::FixedRatio,
            popularity: None,
            routed: None,
            warmup: 0.2,
            duration,
            faults: ServerFaults::none(),
            client: ClientPolicy::none(),
            block: 1,
        }
    }

    /// Runs one server, collecting every record.
    fn collect(
        p: ServerSimParams<'_>,
        rng: &mut rand::rngs::StdRng,
    ) -> (Vec<KeyRecord>, ServerRunStats) {
        let mut records = Vec::new();
        let stats =
            simulate_server_streaming_with(p, rng, &mut BlockScratch::new(), &mut records).unwrap();
        (records, stats)
    }

    fn facebook_run(duration: f64, seed: u64) -> (Vec<KeyRecord>, ServerRunStats) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        collect(healthy_params(duration), &mut rng)
    }

    #[test]
    fn rates_and_utilization_match_configuration() {
        let (records, run) = facebook_run(2.0, 1);
        let key_rate = run.counters.jobs as f64 / 2.0;
        assert!(
            (key_rate / facebook::KEY_RATE - 1.0).abs() < 0.05,
            "{key_rate}"
        );
        assert!((run.utilization - 0.78).abs() < 0.05, "{}", run.utilization);
        let miss_ratio = run.counters.miss_ratio();
        assert!((miss_ratio - 0.01).abs() < 0.005, "{miss_ratio}");
        // Counters agree with the record-level view.
        assert_eq!(run.counters.jobs, records.len() as u64);
        assert_eq!(
            run.counters.misses,
            records.iter().filter(|r| r.missed).count() as u64
        );
        // A healthy run observes no resilience activity at all.
        assert!(!run.resilience.any());
        assert!(records.iter().all(|r| !r.forced));
    }

    #[test]
    fn block_path_is_bit_identical_to_scalar() {
        use rand::RngCore;
        let mut scalar_rng = rand::rngs::StdRng::seed_from_u64(77);
        let (scalar_records, scalar) = collect(healthy_params(0.5), &mut scalar_rng);
        let scalar_next = scalar_rng.next_u64();
        // Power-of-two, odd, and larger-than-run block sizes all agree.
        for block in [2usize, 37, 1024, 1 << 22] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(77);
            let mut p = healthy_params(0.5);
            p.block = block;
            let (records, blocked) = collect(p, &mut rng);
            assert_eq!(scalar_records, records, "block={block}");
            assert_eq!(scalar.counters, blocked.counters, "block={block}");
            assert_eq!(scalar.utilization.to_bits(), blocked.utilization.to_bits());
            // Same RNG stream position afterwards: the block loop drew
            // exactly the scalar draws, nothing more.
            assert_eq!(scalar_next, rng.next_u64(), "block={block}");
        }
    }

    #[test]
    fn block_path_zero_miss_ratio_skips_miss_draws() {
        use rand::RngCore;
        let params = |block: usize| ServerSimParams {
            interarrival: GapLaw::from(facebook::interarrival().unwrap()),
            concurrency: 0.1,
            service_rate: facebook::SERVICE_RATE,
            miss_ratio: 0.0,
            miss_mode: &MissMode::FixedRatio,
            popularity: None,
            routed: None,
            warmup: 0.0,
            duration: 0.3,
            faults: ServerFaults::none(),
            client: ClientPolicy::none(),
            block,
        };
        let mut scalar_rng = rand::rngs::StdRng::seed_from_u64(78);
        let (scalar, _) = collect(params(1), &mut scalar_rng);
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let (blocked, _) = collect(params(512), &mut rng);
        assert_eq!(scalar, blocked);
        assert!(blocked.iter().all(|r| !r.missed));
        assert_eq!(scalar_rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn block_sink_receives_whole_blocks() {
        // A sink that counts record_block calls proves the fast path is
        // actually taken (and that lanes agree with each other).
        struct Counting {
            records: Vec<KeyRecord>,
            blocks: usize,
        }
        impl RecordSink for Counting {
            fn record(&mut self, rec: &KeyRecord) {
                self.records.push(*rec);
            }
            fn record_block(&mut self, block: &KeyBlock<'_>) {
                assert!(!block.is_empty());
                assert_eq!(block.arrival.len(), block.completion.len());
                assert_eq!(block.arrival.len(), block.latency.len());
                assert_eq!(block.arrival.len(), block.missed.len());
                self.blocks += 1;
                for i in 0..block.len() {
                    assert!(block.completion[i] >= block.arrival[i]);
                    let lat = block.completion[i] - block.arrival[i];
                    assert_eq!(lat.to_bits(), block.latency[i].to_bits());
                }
                // Replay through the default path to keep `records`.
                self.records.record_block(block);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(79);
        let mut p = healthy_params(0.5);
        p.block = 256;
        let mut sink = Counting {
            records: Vec::new(),
            blocks: 0,
        };
        let stats =
            simulate_server_streaming_with(p, &mut rng, &mut BlockScratch::new(), &mut sink)
                .unwrap();
        assert!(sink.blocks > 10, "{} blocks", sink.blocks);
        assert_eq!(sink.records.len() as u64, stats.counters.jobs);
        let (baseline, _) = facebook_run(0.5, 79);
        assert_eq!(sink.records, baseline);
    }

    #[test]
    fn latency_quantiles_inside_eq9_band() {
        // The per-key latency quantiles must fall between the model's
        // T_Q and T_C bounds (paper eq. 9 / Fig. 4).
        let (records, _) = facebook_run(4.0, 2);
        let gaps = GeneralizedPareto::facebook(0.15, 56_250.0).unwrap();
        let queue = memlat_queue::GixM1::new(&gaps, 0.1, 80_000.0).unwrap();
        let mut lats: Vec<f64> = records.iter().map(|r| r.server_latency).collect();
        lats.sort_by(f64::total_cmp);
        let ecdf = memlat_stats::Ecdf::from_sorted(lats);
        for k in [0.3, 0.6, 0.9] {
            let (lo, hi) = queue.key_latency_quantile_bounds(k);
            let measured = ecdf.quantile(k);
            // 12% slack for finite-run noise.
            assert!(
                measured > lo * 0.88 && measured < hi * 1.12,
                "k={k}: measured={measured} band=({lo}, {hi})"
            );
        }
    }

    #[test]
    fn records_are_causally_consistent() {
        let (records, _) = facebook_run(0.5, 3);
        for r in &records {
            assert!(r.completion >= r.arrival);
            assert!((r.server_latency - (r.completion - r.arrival)).abs() < 1e-12);
        }
        // Completions at one FCFS server are non-decreasing.
        assert!(records
            .windows(2)
            .all(|w| w[1].completion >= w[0].completion));
    }

    #[test]
    fn zero_miss_ratio_yields_no_misses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let (records, run) = collect(
            ServerSimParams {
                interarrival: GapLaw::from(facebook::interarrival().unwrap()),
                concurrency: 0.1,
                service_rate: facebook::SERVICE_RATE,
                miss_ratio: 0.0,
                miss_mode: &MissMode::FixedRatio,
                popularity: None,
                routed: None,
                warmup: 0.0,
                duration: 0.3,
                faults: ServerFaults::none(),
                client: ClientPolicy::none(),
                block: 1,
            },
            &mut rng,
        );
        assert!(records.iter().all(|r| !r.missed));
        assert_eq!(run.counters.misses, 0);
    }

    #[test]
    fn cache_backed_mode_produces_emergent_misses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mode = MissMode::CacheBacked(crate::config::CacheBackedConfig {
            memory_bytes: 8 << 20,
            keyspace: 200_000,
            skew: 1.01,
            mean_value_bytes: 300.0,
            routing: crate::config::CacheRouting::Independent,
        });
        let (records, run) = collect(
            ServerSimParams {
                interarrival: GapLaw::from(facebook::interarrival().unwrap()),
                concurrency: 0.1,
                service_rate: facebook::SERVICE_RATE,
                miss_ratio: 0.0, // ignored in cache-backed mode
                miss_mode: &mode,
                popularity: None,
                routed: None,
                warmup: 0.5,
                duration: 0.5,
                faults: ServerFaults::none(),
                client: ClientPolicy::none(),
                block: 1,
            },
            &mut rng,
        );
        // Some misses, but far fewer than hits: a working cache.
        let miss_ratio = run.counters.miss_ratio();
        assert!(miss_ratio > 0.0 && miss_ratio < 0.5, "{miss_ratio}");
        assert!(records.iter().any(|r| r.missed));
        assert!(records.iter().any(|r| !r.missed));
    }

    #[test]
    fn crash_without_retries_forces_misses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut p = healthy_params(0.5);
        p.faults = FaultPlan::none().crash(0, 0.3, 0.5).for_server(0);
        let (records, run) = collect(p, &mut rng);
        assert!(run.resilience.refused > 0);
        assert_eq!(run.resilience.refused, run.resilience.forced_misses);
        assert_eq!(run.resilience.retries, 0);
        assert!((run.resilience.downtime - 0.2).abs() < 1e-12);
        // Refused keys resolve instantly at zero latency, served keys
        // keep positive latency.
        for r in &records {
            if r.forced {
                assert_eq!(r.server_latency, 0.0);
                assert!(!r.missed);
            } else {
                assert!(r.server_latency > 0.0);
            }
        }
    }

    #[test]
    fn retries_recover_keys_after_crash_window() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut p = healthy_params(0.5);
        // A short mid-window crash; generous retry budget with backoff
        // long enough to hop over the window.
        p.faults = FaultPlan::none().crash(0, 0.3, 0.32).for_server(0);
        p.client = ClientPolicy::none().retry(RetryPolicy {
            max_retries: 5,
            base_backoff: 10e-3,
            multiplier: 2.0,
            jitter: 0.1,
        });
        let (records, run) = collect(p, &mut rng);
        assert!(run.resilience.refused > 0);
        assert!(run.resilience.retries > 0);
        // The retry budget (5 × backoff ≥ 10 ms vs a 20 ms outage)
        // recovers every refused key: each refusal was retried.
        assert_eq!(run.resilience.forced_misses, 0);
        assert_eq!(run.resilience.retries, run.resilience.refused);
        // Keys that first arrived inside the outage were refused, and
        // completed after it ended.
        let recovered: Vec<_> = records
            .iter()
            .filter(|r| (0.3..0.32).contains(&r.arrival))
            .collect();
        assert!(!recovered.is_empty());
        for r in &recovered {
            assert!(!r.forced);
            assert!(r.completion > 0.32);
        }
    }

    #[test]
    fn slowdown_scales_latency_inside_the_window() {
        let (base, _) = facebook_run(0.5, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut p = healthy_params(0.5);
        p.faults = FaultPlan::none().slowdown(0, 0.3, 0.5, 4.0).for_server(0);
        let (records, slow) = collect(p, &mut rng);
        // Same seed, same draws: every key resolves and latency can only
        // grow. With no retries a key's only attempt arrives with it, so
        // the keys served slowly are those arriving inside the window.
        let in_window = |r: &KeyRecord| (0.3..0.5).contains(&r.arrival);
        assert_eq!(records.len(), base.len());
        assert!(records.iter().any(in_window));
        assert!(records
            .iter()
            .zip(&base)
            .all(|(s, b)| s.server_latency >= b.server_latency));
        let mean_of = |pred: &dyn Fn(&KeyRecord) -> bool| {
            let lats: Vec<f64> = records
                .iter()
                .filter(|r| pred(r))
                .map(|r| r.server_latency)
                .collect();
            lats.iter().sum::<f64>() / lats.len() as f64
        };
        let degraded_mean = mean_of(&in_window);
        // Post-window keys inherit the residual backlog, so the clean
        // comparison is against keys that arrived *before* the window.
        let pre_window_mean = mean_of(&|r| r.arrival < 0.3);
        assert!(
            degraded_mean > pre_window_mean,
            "degraded {degraded_mean} vs pre-window {pre_window_mean}"
        );
        assert!((slow.resilience.degraded_time - 0.2).abs() < 1e-12);
        assert_eq!(slow.resilience.downtime, 0.0);
    }

    #[test]
    fn timeouts_are_detected_and_bounded() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut p = healthy_params(0.5);
        // A heavy slowdown plus a tight timeout: long sojourns abandon.
        p.faults = FaultPlan::none().slowdown(0, 0.2, 0.7, 10.0).for_server(0);
        p.client = ClientPolicy::none().timeout(2e-3);
        let (records, run) = collect(p, &mut rng);
        assert!(run.resilience.timeouts > 0);
        assert_eq!(run.resilience.timeouts, run.resilience.forced_misses);
        // Served keys all resolved within the timeout.
        for r in records.iter().filter(|r| !r.forced) {
            assert!(r.server_latency <= 2e-3 + 1e-12);
        }
        // Forced keys gave up exactly at the timeout.
        for r in records.iter().filter(|r| r.forced) {
            assert!((r.server_latency - 2e-3).abs() < 1e-12);
        }
    }

    #[test]
    fn conservation_under_faults_and_retries() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut p = healthy_params(0.5);
        p.faults = FaultPlan::none()
            .crash(0, 0.25, 0.35)
            .slowdown(0, 0.4, 0.6, 5.0)
            .for_server(0);
        p.client = ClientPolicy::none()
            .timeout(1e-3)
            .retry(RetryPolicy::default());
        let max = p.client.max_attempts();
        let (records, run) = collect(p, &mut rng);
        let forced = records.iter().filter(|r| r.forced).count() as u64;
        let missed = records.iter().filter(|r| r.missed).count() as u64;
        let hits = records.iter().filter(|r| !r.missed && !r.forced).count() as u64;
        assert_eq!(forced, run.resilience.forced_misses);
        assert_eq!(hits + missed + forced, run.counters.jobs);
        let res = run.resilience;
        assert!(res.timeouts + res.refused > 0);
        // Every failed attempt is either retried or forces a miss, and
        // no key retries past the policy bound.
        assert_eq!(res.timeouts + res.refused, res.retries + res.forced_misses);
        assert!(res.retries <= u64::from(max - 1) * run.counters.jobs);
    }
}
