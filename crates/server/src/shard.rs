//! Hash-partitioned store shards, one worker thread each.
//!
//! Connections never touch a store directly: the reader side of a
//! connection parses a command, picks the shard by FNV-1a hash of the key
//! and enqueues a [`Job`] on that shard's channel. There is no global lock
//! on this path — each shard owns its [`Store`] exclusively and the only
//! shared state per shard is its metrics block. The channel itself is the
//! physical realization of the GI^X/M/1 queue the latency model describes:
//! jobs wait in it while the worker serves earlier batches.
//!
//! For model-conformance runs the worker can *inject* an exponential
//! service time per key (wall-clock deadline waiting, not CPU burning, so
//! several shards plus a load generator coexist on a single core). The
//! injected law makes the service-time distribution known, which is what
//! lets a measured loopback run be compared against Theorem 1.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use memlat_cache::{Bytes, Lookup, Store, StoreConfig, StoreError};
use memlat_dist::Exponential;
use rand::{rngs::StdRng, SeedableRng};

use crate::Clock;

/// FNV-1a hash of a byte key (stable across runs; shared with the load
/// generator so both sides agree on key → shard placement).
#[must_use]
pub fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Shard index for `key` among `shards` partitions.
#[must_use]
pub fn shard_of(key: &[u8], shards: usize) -> usize {
    (fnv1a(key) % shards.max(1) as u64) as usize
}

/// Configuration of the shard pool.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of hash partitions (worker threads).
    pub shards: usize,
    /// Slab memory per shard, in bytes.
    pub memory_bytes: usize,
    /// Optional injected per-key service time: mean of an exponential law,
    /// in seconds. `None` serves at native speed.
    pub service_exp_mean: Option<f64>,
    /// Seed for the per-shard service-time RNG streams.
    pub service_seed: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            memory_bytes: 64 << 20,
            service_exp_mean: None,
            service_seed: 0x5eed,
        }
    }
}

/// A stored value as returned to the protocol layer.
#[derive(Debug, Clone)]
pub struct OwnedValue {
    /// Client flags recorded at `set` time.
    pub flags: u32,
    /// CAS unique (monotone per shard).
    pub cas: u64,
    /// The payload.
    pub data: Bytes,
}

/// The store operation carried by a job.
#[derive(Debug)]
pub enum ShardOp {
    /// Look up a batch of keys (all belonging to this shard).
    GetMany(Vec<Vec<u8>>),
    /// Store one key.
    Set {
        /// Item key.
        key: Vec<u8>,
        /// Client flags to echo back on retrieval.
        flags: u32,
        /// Relative expiry seconds (`0` never, negative = already expired).
        exptime: i64,
        /// Value bytes.
        data: Bytes,
    },
    /// Delete one key.
    Delete(Vec<u8>),
}

impl ShardOp {
    /// Number of key accesses the operation performs (for μ̂ accounting).
    #[must_use]
    pub fn key_count(&self) -> u64 {
        match self {
            ShardOp::GetMany(keys) => keys.len() as u64,
            ShardOp::Set { .. } | ShardOp::Delete(_) => 1,
        }
    }
}

/// A worker's answer to one job.
#[derive(Debug)]
pub enum ShardReply {
    /// Per-key results aligned with the request's key order.
    Values(Vec<Option<OwnedValue>>),
    /// `set` outcome: `Ok` or the full error line to send.
    Stored(Result<(), &'static str>),
    /// `delete` outcome: whether the key existed.
    Deleted(bool),
}

/// A completed job flowing back to the connection's writer side.
#[derive(Debug)]
pub struct JobReply {
    /// Ticket of the command this job belongs to.
    pub ticket: u64,
    /// Part index within the command (multigets split across shards).
    pub part: u32,
    /// The result.
    pub reply: ShardReply,
}

/// Events delivered to a connection's writer side.
#[derive(Debug)]
pub enum ConnEvent {
    /// A shard finished one part of a command.
    Reply(JobReply),
    /// The reader side changed connection state (new plans, or EOF).
    Wake,
}

/// One queued unit of shard work.
#[derive(Debug)]
pub struct Job {
    /// The operation.
    pub op: ShardOp,
    /// Command ticket (per connection, monotone).
    pub ticket: u64,
    /// Part index within the command.
    pub part: u32,
    /// Dispatch timestamp from the server [`Clock`], for sojourn metrics.
    pub enqueued: f64,
    /// Where to deliver the reply.
    pub reply: mpsc::Sender<ConnEvent>,
}

enum WorkerMsg {
    Work(Box<Job>),
    Halt,
}

#[derive(Debug, Default)]
struct Gauge {
    last: f64,
    inflight: u64,
    integral: f64,
}

impl Gauge {
    fn advance(&mut self, now: f64) {
        if now > self.last {
            self.integral += self.inflight as f64 * (now - self.last);
            self.last = now;
        }
    }
}

/// Per-shard counters and the jobs-in-system gauge.
///
/// The gauge integrates the number of in-flight jobs (dispatched but not
/// completed) over time; divided by the observation window it yields the
/// time-average N̄ that Little's law relates to λ·E\[T\].
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Keys touched by completed jobs.
    pub keys_served: AtomicU64,
    /// Wall-clock nanoseconds the worker spent processing jobs (includes
    /// injected service time); `busy_ns / keys_served` estimates `1/μ̂`.
    pub busy_ns: AtomicU64,
    /// Completed jobs (batches).
    pub jobs: AtomicU64,
    /// Summed dispatch→completion sojourn, nanoseconds.
    pub sojourn_ns: AtomicU64,
    /// Store hits (mirrored from the worker-owned store).
    pub hits: AtomicU64,
    /// Store misses, including lookups of never-seen keys.
    pub misses: AtomicU64,
    /// Successful sets.
    pub sets: AtomicU64,
    /// Successful deletes.
    pub deletes: AtomicU64,
    /// LRU evictions.
    pub evictions: AtomicU64,
    /// Lazy-expiry reclaims.
    pub expired: AtomicU64,
    /// Live items.
    pub curr_items: AtomicU64,
    gauge: Mutex<Gauge>,
}

impl ShardMetrics {
    fn on_dispatch(&self, now: f64) {
        let mut g = self.gauge.lock().expect("gauge poisoned");
        g.advance(now);
        g.inflight += 1;
    }

    fn on_complete(&self, now: f64) {
        let mut g = self.gauge.lock().expect("gauge poisoned");
        g.advance(now);
        g.inflight = g.inflight.saturating_sub(1);
    }

    /// Jobs-in-system time integral (job·seconds) up to `now`.
    #[must_use]
    pub fn queue_integral(&self, now: f64) -> f64 {
        let mut g = self.gauge.lock().expect("gauge poisoned");
        g.advance(now);
        g.integral
    }

    /// Currently in-flight jobs.
    #[must_use]
    pub fn inflight(&self) -> u64 {
        self.gauge.lock().expect("gauge poisoned").inflight
    }
}

struct KeyMeta {
    id: u64,
    flags: u32,
    cas: u64,
}

/// Injected exponential per-key service time.
///
/// Sleeps the bulk of the drawn duration and yield-spins only the final
/// stretch: on a single-core host the load generator and every shard
/// worker share that core, so a worker that spins its whole service time
/// starves response delivery (and the client's RTT timestamps) whenever
/// the summed shard utilization approaches one core. Sleeping leaves the
/// core free; the short spin tail keeps the achieved duration close to
/// the drawn one despite timer slack. The measured `busy_ns` absorbs
/// whatever remains, and conformance runs evaluate the model at the
/// measured μ̂ rather than the nominal one, so residual oversleep biases
/// the comparison nothing.
struct ServiceInjector {
    law: Exponential,
    rng: StdRng,
}

/// How much of the injected wait is yield-spun instead of slept, to
/// cover typical Linux timer slack (~50 µs) without burning the core.
const SPIN_TAIL: Duration = Duration::from_micros(150);

impl ServiceInjector {
    fn wait(&mut self) {
        let d = self.law.sample_with(&mut self.rng);
        let deadline = Instant::now() + Duration::from_secs_f64(d);
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let left = deadline - now;
            if left > SPIN_TAIL {
                thread::sleep(left - SPIN_TAIL);
            } else {
                thread::yield_now();
            }
        }
    }
}

/// The pool of shard workers.
pub struct ShardPool {
    senders: Vec<mpsc::Sender<WorkerMsg>>,
    metrics: Vec<Arc<ShardMetrics>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    clock: Clock,
}

impl ShardPool {
    /// Spawns one worker per shard.
    ///
    /// # Errors
    ///
    /// Propagates store-configuration errors and injected-law parameter
    /// errors as a [`StoreError`].
    pub fn new(cfg: &ShardConfig, clock: Clock) -> Result<Self, StoreError> {
        let shards = cfg.shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut metrics = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for j in 0..shards {
            let store = Store::new(StoreConfig::with_memory(cfg.memory_bytes))?;
            let injector = match cfg.service_exp_mean {
                Some(mean) if mean > 0.0 => Some(ServiceInjector {
                    law: Exponential::new(1.0 / mean)
                        .map_err(|e| StoreError::Config(e.to_string()))?,
                    rng: StdRng::seed_from_u64(cfg.service_seed ^ (j as u64).wrapping_mul(0x9e37)),
                }),
                _ => None,
            };
            let m = Arc::new(ShardMetrics::default());
            let (tx, rx) = mpsc::channel();
            let worker_metrics = Arc::clone(&m);
            let handle = thread::Builder::new()
                .name(format!("memlat-shard-{j}"))
                .spawn(move || worker_loop(&rx, store, clock, &worker_metrics, injector))
                .expect("spawn shard worker");
            senders.push(tx);
            metrics.push(m);
            workers.push(handle);
        }
        Ok(Self {
            senders,
            metrics,
            workers: Mutex::new(workers),
            clock,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Per-shard metrics blocks.
    #[must_use]
    pub fn metrics(&self) -> &[Arc<ShardMetrics>] {
        &self.metrics
    }

    /// Enqueues a job on `shard`, stamping the queue gauge.
    pub fn dispatch(&self, shard: usize, mut job: Job) {
        let now = self.clock.now();
        job.enqueued = now;
        self.metrics[shard].on_dispatch(now);
        // A send can only fail after shutdown; the conn is closing anyway.
        let _ = self.senders[shard].send(WorkerMsg::Work(Box::new(job)));
    }

    /// Stops all workers and joins them. Idempotent.
    pub fn shutdown(&self) {
        for tx in &self.senders {
            let _ = tx.send(WorkerMsg::Halt);
        }
        let mut workers = self.workers.lock().expect("workers poisoned");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(
    rx: &mpsc::Receiver<WorkerMsg>,
    mut store: Store,
    clock: Clock,
    metrics: &ShardMetrics,
    mut injector: Option<ServiceInjector>,
) {
    let mut interner: HashMap<Vec<u8>, KeyMeta> = HashMap::new();
    let mut next_id: u64 = 1;
    let mut next_cas: u64 = 1;
    let mut extra_misses: u64 = 0;
    while let Ok(WorkerMsg::Work(job)) = rx.recv() {
        let t0 = Instant::now();
        let reply = match job.op {
            ShardOp::GetMany(ref keys) => {
                let mut out = Vec::with_capacity(keys.len());
                for key in keys {
                    if let Some(inj) = injector.as_mut() {
                        inj.wait();
                    }
                    let hit = interner.get(key.as_slice()).and_then(|meta| {
                        match store.get(meta.id, clock.now()) {
                            Lookup::Hit {
                                payload: Some(data),
                                ..
                            } => Some(OwnedValue {
                                flags: meta.flags,
                                cas: meta.cas,
                                data,
                            }),
                            _ => None,
                        }
                    });
                    if hit.is_none() && !interner.contains_key(key.as_slice()) {
                        extra_misses += 1;
                    }
                    out.push(hit);
                }
                ShardReply::Values(out)
            }
            ShardOp::Set {
                ref key,
                flags,
                exptime,
                ref data,
            } => {
                let now = clock.now();
                let expires_at = match exptime {
                    0 => None,
                    t if t < 0 => Some(-1.0),
                    t => Some(now + t as f64),
                };
                let id = match interner.get(key.as_slice()) {
                    Some(meta) => meta.id,
                    None => {
                        let id = next_id;
                        next_id += 1;
                        id
                    }
                };
                match store.set_with_payload(id, data.clone(), expires_at, now) {
                    Ok(()) => {
                        let cas = next_cas;
                        next_cas += 1;
                        interner.insert(key.clone(), KeyMeta { id, flags, cas });
                        ShardReply::Stored(Ok(()))
                    }
                    // A failed set has dropped the old value from the
                    // store; forget the key too, as after a delete.
                    Err(StoreError::ItemTooLarge { .. }) => {
                        interner.remove(key.as_slice());
                        ShardReply::Stored(Err("SERVER_ERROR object too large for cache\r\n"))
                    }
                    Err(_) => {
                        interner.remove(key.as_slice());
                        ShardReply::Stored(Err("SERVER_ERROR out of memory storing object\r\n"))
                    }
                }
            }
            ShardOp::Delete(ref key) => {
                let existed = interner
                    .get(key.as_slice())
                    .is_some_and(|meta| store.delete(meta.id));
                if existed {
                    interner.remove(key.as_slice());
                }
                ShardReply::Deleted(existed)
            }
        };

        let keys = job.op.key_count();
        metrics
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        metrics.keys_served.fetch_add(keys, Ordering::Relaxed);
        metrics.jobs.fetch_add(1, Ordering::Relaxed);
        let done = clock.now();
        metrics.on_complete(done);
        let sojourn = ((done - job.enqueued).max(0.0) * 1e9) as u64;
        metrics.sojourn_ns.fetch_add(sojourn, Ordering::Relaxed);

        let st = store.stats();
        metrics.hits.store(st.hits, Ordering::Relaxed);
        metrics
            .misses
            .store(st.misses + extra_misses, Ordering::Relaxed);
        metrics.sets.store(st.sets, Ordering::Relaxed);
        metrics.deletes.store(st.deletes, Ordering::Relaxed);
        metrics.evictions.store(st.evictions, Ordering::Relaxed);
        metrics.expired.store(st.expired, Ordering::Relaxed);
        metrics
            .curr_items
            .store(store.len() as u64, Ordering::Relaxed);

        let _ = job.reply.send(ConnEvent::Reply(JobReply {
            ticket: job.ticket,
            part: job.part,
            reply,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in 1..8 {
            for key in [&b"alpha"[..], b"beta", b"gamma"] {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards));
            }
        }
    }

    #[test]
    fn pool_set_get_delete_roundtrip() {
        let clock = Clock::new();
        let pool = ShardPool::new(
            &ShardConfig {
                shards: 2,
                memory_bytes: 8 << 20,
                service_exp_mean: None,
                service_seed: 1,
            },
            clock,
        )
        .unwrap();
        let (tx, rx) = mpsc::channel();
        let shard = shard_of(b"k1", 2);
        pool.dispatch(
            shard,
            Job {
                op: ShardOp::Set {
                    key: b"k1".to_vec(),
                    flags: 9,
                    exptime: 0,
                    data: Bytes::copy_from_slice(b"hello"),
                },
                ticket: 1,
                part: 0,
                enqueued: 0.0,
                reply: tx.clone(),
            },
        );
        match rx.recv().unwrap() {
            ConnEvent::Reply(JobReply {
                reply: ShardReply::Stored(Ok(())),
                ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        pool.dispatch(
            shard,
            Job {
                op: ShardOp::GetMany(vec![b"k1".to_vec(), b"nope".to_vec()]),
                ticket: 2,
                part: 0,
                enqueued: 0.0,
                reply: tx.clone(),
            },
        );
        match rx.recv().unwrap() {
            ConnEvent::Reply(JobReply {
                reply: ShardReply::Values(vals),
                ..
            }) => {
                assert_eq!(vals.len(), 2);
                let v = vals[0].as_ref().expect("hit");
                assert_eq!(v.flags, 9);
                assert_eq!(&v.data[..], b"hello");
                assert!(vals[1].is_none());
            }
            other => panic!("unexpected: {other:?}"),
        }
        pool.dispatch(
            shard,
            Job {
                op: ShardOp::Delete(b"k1".to_vec()),
                ticket: 3,
                part: 0,
                enqueued: 0.0,
                reply: tx,
            },
        );
        match rx.recv().unwrap() {
            ConnEvent::Reply(JobReply {
                reply: ShardReply::Deleted(true),
                ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let m = &pool.metrics()[shard];
        assert_eq!(m.keys_served.load(Ordering::Relaxed), 4);
        assert!(m.busy_ns.load(Ordering::Relaxed) > 0);
        assert_eq!(m.inflight(), 0);
        pool.shutdown();
    }

    #[test]
    fn negative_exptime_is_immediately_expired() {
        let clock = Clock::new();
        let pool = ShardPool::new(
            &ShardConfig {
                shards: 1,
                memory_bytes: 4 << 20,
                service_exp_mean: None,
                service_seed: 1,
            },
            clock,
        )
        .unwrap();
        let (tx, rx) = mpsc::channel();
        pool.dispatch(
            0,
            Job {
                op: ShardOp::Set {
                    key: b"gone".to_vec(),
                    flags: 0,
                    exptime: -1,
                    data: Bytes::copy_from_slice(b"x"),
                },
                ticket: 1,
                part: 0,
                enqueued: 0.0,
                reply: tx.clone(),
            },
        );
        let _ = rx.recv().unwrap();
        pool.dispatch(
            0,
            Job {
                op: ShardOp::GetMany(vec![b"gone".to_vec()]),
                ticket: 2,
                part: 0,
                enqueued: 0.0,
                reply: tx,
            },
        );
        match rx.recv().unwrap() {
            ConnEvent::Reply(JobReply {
                reply: ShardReply::Values(vals),
                ..
            }) => assert!(vals[0].is_none()),
            other => panic!("unexpected: {other:?}"),
        }
        pool.shutdown();
    }

    #[test]
    fn queue_gauge_integrates_inflight_time() {
        let m = ShardMetrics::default();
        m.on_dispatch(1.0);
        m.on_dispatch(2.0);
        // Two jobs in flight over [2, 3]: integral = 1·1 + 2·1 = 3.
        assert!((m.queue_integral(3.0) - 3.0).abs() < 1e-12);
        m.on_complete(3.0);
        assert!((m.queue_integral(4.0) - 4.0).abs() < 1e-12);
        assert_eq!(m.inflight(), 1);
    }
}
