//! The benchmark's look-aside client, built on `memlat_loadgen`'s
//! `Connection` and `KeyTable`.
//!
//! Each connection runs on its own thread with exactly one request
//! outstanding: a multiget of Geometric(q) Zipf-ranked keys, then one
//! `set` per distinct missed key (demand fill). Every value encodes its
//! own key and its bytes are a function of the key's rank, so each
//! returned value is checked byte for byte. Every completed operation is
//! filed under the one-second bucket (since the run's start) its reply
//! arrived in, so rates and quantiles can be taken per second, and the
//! hypervisor's steal is read at every bucket boundary. The run's
//! statistics are medians over its quiet buckets: those whose steal is
//! at most the median bucket's (or [`procfs::QUIET_STEAL`], if more).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use memlat_des::rng::splitmix64;
use memlat_dist::{Continuous, GeneralizedPareto, GeometricBatch};
use memlat_loadgen::driver::KeyTable;
use memlat_loadgen::{Connection, Response};
use memlat_server::protocol::parser::MAX_GET_KEYS;
use memlat_workload::ZipfPopularity;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::procfs::{self, SchedStat};
use crate::stats::{median, percentile};

/// Zipf exponent of the key popularity.
pub const SKEW: f64 = 0.99;
/// Concurrency probability `q` of the multiget batch sizes.
pub const BATCH_Q: f64 = 0.1;
/// Largest value, bytes: every slab class up to it is claimed during the
/// preload, so no `set` finds its class without memory. The law's mass
/// above it (~0.3%) is clamped to it.
pub const VALUE_CAP: usize = 4_096;
/// Request bytes recorded per connection for the in-process replay.
const RECORD_CAP: usize = 64 << 20;
/// Width of the buckets that per-second rates and quantiles use.
const BUCKET: Duration = Duration::from_secs(1);

/// Value sizes from `memlat_workload::facebook::value_size_bytes`, one
/// fixed size per rank, and value bytes that encode the key.
#[derive(Debug, Clone)]
pub struct ValueLaw {
    seed: u64,
    sizes: GeneralizedPareto,
}

impl ValueLaw {
    /// The law for workload seed `seed`.
    ///
    /// # Errors
    ///
    /// The preset value-size law failed to build.
    pub fn new(seed: u64) -> Result<Self, String> {
        Ok(Self {
            seed,
            sizes: memlat_workload::facebook::value_size_bytes().map_err(|e| e.to_string())?,
        })
    }

    /// Value length of `rank`.
    #[must_use]
    pub fn len(&self, rank: u64) -> usize {
        let u = memlat_dist::open_unit_from_bits(splitmix64(self.seed ^ splitmix64(rank)));
        (self.sizes.quantile(u).round() as usize).clamp(16, VALUE_CAP)
    }

    /// Writes `rank`'s value into `out`: `k<rank>|` then letters.
    pub fn write(&self, rank: u64, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(format!("k{rank}|").as_bytes());
        let len = self.len(rank);
        let start = out.len();
        out.extend((start..len).map(|i| b'a' + ((rank as usize + i) % 26) as u8));
    }
}

/// Everything a client thread needs, shared read-only.
pub struct Workload {
    /// Workload seed.
    pub seed: u64,
    /// Distinct keys.
    pub keyspace: u64,
    /// Rank → key bytes.
    pub table: KeyTable,
    /// Key popularity.
    pub zipf: ZipfPopularity,
    /// Multiget sizes.
    pub batch: GeometricBatch,
    /// Value sizes and bytes.
    pub values: ValueLaw,
    /// Connections, one thread each.
    pub connections: usize,
}

impl Workload {
    /// Builds the key table and laws.
    ///
    /// # Errors
    ///
    /// A law rejected its parameters.
    pub fn new(
        seed: u64,
        keyspace: u64,
        shards: usize,
        connections: usize,
    ) -> Result<Self, String> {
        Ok(Self {
            seed,
            keyspace,
            table: KeyTable::new(keyspace, shards),
            zipf: ZipfPopularity::new(keyspace, SKEW).map_err(|e| e.to_string())?,
            batch: GeometricBatch::new(BATCH_Q).map_err(|e| e.to_string())?,
            values: ValueLaw::new(seed)?,
            connections,
        })
    }
}

/// Appends `set <key> 0 0 <len>\r\n<value>\r\n`.
pub fn push_set(frame: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    frame.extend_from_slice(b"set ");
    frame.extend_from_slice(key);
    frame.extend_from_slice(format!(" 0 0 {}\r\n", value.len()).as_bytes());
    frame.extend_from_slice(value);
    frame.extend_from_slice(b"\r\n");
}

fn push_get(frame: &mut Vec<u8>, table: &KeyTable, ranks: &[u64]) {
    frame.extend_from_slice(b"get");
    for &r in ranks {
        frame.push(b' ');
        frame.extend_from_slice(table.key(r));
    }
    frame.extend_from_slice(b"\r\n");
}

fn parse_rank(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key.strip_prefix(b"k")?)
        .ok()?
        .parse()
        .ok()
}

/// Operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `get` commands completed.
    pub gets: u64,
    /// `set` commands completed.
    pub sets: u64,
    /// Keys requested by the gets.
    pub get_keys: u64,
    /// Keys returned, with the right bytes.
    pub get_hits: u64,
    /// Error replies, wrong or unrequested values, rejected sets.
    pub failed: u64,
    /// Requests written.
    pub sent: u64,
    /// Complete replies read.
    pub received: u64,
}

impl Counts {
    fn add(&mut self, o: &Self) {
        self.gets += o.gets;
        self.sets += o.sets;
        self.get_keys += o.get_keys;
        self.get_hits += o.get_hits;
        self.failed += o.failed;
        self.sent += o.sent;
        self.received += o.received;
    }
}

/// When a client run stops: at `length`, or once each connection has
/// completed `ops_per_connection` operations, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    /// Wall-clock length.
    pub length: Duration,
    /// Operations per connection.
    pub ops_per_connection: u64,
}

impl Limit {
    /// Runs for `length`.
    #[must_use]
    pub fn time(length: Duration) -> Self {
        Self {
            length,
            ops_per_connection: u64::MAX,
        }
    }
}

/// One operation type's samples: (bucket, latency µs).
type Samples = Vec<(u32, f64)>;

/// One connection's thread.
pub struct ThreadRun {
    /// Its counts.
    pub counts: Counts,
    /// Its CPU time and run-queue wait.
    pub cpu: SchedStat,
    /// When it started.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
    get: Samples,
    set: Samples,
    get_keys: Vec<u64>,
    recorded: Vec<u8>,
    error: Option<String>,
}

/// All connections over one run.
pub struct ClientRun {
    /// Summed counts.
    pub total: Counts,
    /// Get latencies (issue to complete reply), µs, with their buckets.
    pub get: Samples,
    /// Set latencies, µs, with their buckets.
    pub set: Samples,
    /// Get keys completed per bucket.
    pub get_keys_per_bucket: Vec<u64>,
    /// Buckets that lie wholly inside the run.
    pub full_buckets: usize,
    /// Share of the machine's CPU time stolen in each full bucket.
    pub steal_per_bucket: Vec<f64>,
    /// Wall seconds from the first thread's start to the last one's end.
    pub elapsed_s: f64,
    /// Connections used.
    pub connections: usize,
    /// Per-thread detail.
    pub threads: Vec<ThreadRun>,
    /// Request bytes each connection sent (when recording).
    pub recorded: Vec<Vec<u8>>,
    errors: Vec<String>,
}

impl ClientRun {
    /// Get keys hit over get keys requested.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        self.total.get_hits as f64 / self.total.get_keys.max(1) as f64
    }

    /// The first socket error any connection met.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        self.errors.first().map(String::as_str)
    }

    /// Whether each full bucket is quiet ([`procfs::quiet`]).
    #[must_use]
    pub fn quiet(&self) -> Vec<bool> {
        let mut q = procfs::quiet(&self.steal_per_bucket);
        q.resize(self.full_buckets, true);
        q
    }

    /// Median over the quiet buckets of each bucket's nearest-rank
    /// percentile `p` of `samples`; over all samples when no bucket is
    /// full.
    #[must_use]
    pub fn bucket_percentile(&self, samples: &Samples, p: f64) -> f64 {
        let quiet = self.quiet();
        let qs: Vec<f64> = self
            .bucket_percentiles(samples, p)
            .into_iter()
            .zip(&quiet)
            .filter_map(|(q, &ok)| ok.then_some(q))
            .filter(|q| !q.is_nan())
            .collect();
        if qs.is_empty() {
            let mut all: Vec<f64> = samples.iter().map(|&(_, x)| x).collect();
            return percentile(&mut all, p);
        }
        median(&qs)
    }

    /// Each full bucket's nearest-rank percentile `p` of `samples`, in
    /// bucket order (`NaN` for a bucket without samples).
    #[must_use]
    pub fn bucket_percentiles(&self, samples: &Samples, p: f64) -> Vec<f64> {
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); self.full_buckets];
        for &(b, x) in samples {
            if let Some(v) = per.get_mut(b as usize) {
                v.push(x);
            }
        }
        per.iter_mut().map(|v| percentile(v, p)).collect()
    }

    /// Median over the quiet buckets of a per-bucket count, per second;
    /// the whole-run rate when no bucket is full.
    #[must_use]
    pub fn bucket_rate(&self, per_bucket: &[u64]) -> f64 {
        let rates: Vec<f64> = per_bucket
            .iter()
            .zip(self.quiet())
            .filter_map(|(&c, ok)| ok.then_some(c as f64 / BUCKET.as_secs_f64()))
            .collect();
        if rates.is_empty() {
            return per_bucket.iter().sum::<u64>() as f64 / self.elapsed_s.max(1e-9);
        }
        median(&rates)
    }

    /// Operations (gets and sets) completed per bucket.
    #[must_use]
    pub fn ops_per_bucket(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.get_keys_per_bucket.len()];
        for &(b, _) in self.get.iter().chain(&self.set) {
            if let Some(c) = out.get_mut(b as usize) {
                *c += 1;
            }
        }
        out
    }
}

/// A seed for stream `stream` of `seed`: distinct streams of one seed,
/// and equal streams of distinct seeds, are unrelated.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

/// Shared state of one run's connections.
struct Shared<'a> {
    w: &'a Workload,
    origin: Instant,
    deadline: Instant,
    ops_cap: u64,
    record: bool,
    running: AtomicUsize,
}

/// Runs `w.connections` closed-loop connections against `addr` until
/// `limit`. Connection `i` draws from `StdRng` seeded with
/// `mix(seed, i)`. A monitor thread reads the machine's steal at every
/// bucket boundary.
#[must_use]
pub fn run(addr: SocketAddr, w: &Workload, seed: u64, limit: Limit, record: bool) -> ClientRun {
    let origin = Instant::now();
    let shared = Shared {
        w,
        origin,
        deadline: origin + limit.length,
        ops_cap: limit.ops_per_connection,
        record,
        running: AtomicUsize::new(w.connections),
    };
    let (mut threads, ticks): (Vec<ThreadRun>, _) = std::thread::scope(|s| {
        let sh = &shared;
        let handles: Vec<_> = (0..w.connections)
            .map(|i| {
                let seed = mix(seed, i as u64);
                s.spawn(move || {
                    let t = connection_loop(addr, sh, seed);
                    sh.running.fetch_sub(1, Ordering::SeqCst);
                    t
                })
            })
            .collect();
        let mut ticks = vec![procfs::cpu_ticks()];
        while sh.running.load(Ordering::SeqCst) > 0 {
            if origin.elapsed() >= BUCKET * ticks.len() as u32 {
                ticks.push(procfs::cpu_ticks());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Closes the last bucket (a later reading than its boundary).
        ticks.push(procfs::cpu_ticks());
        let threads = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (threads, ticks)
    });
    let mut total = Counts::default();
    let (mut get, mut set, mut recorded, mut errors) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut get_keys_per_bucket: Vec<u64> = Vec::new();
    for t in &mut threads {
        total.add(&t.counts);
        get.append(&mut t.get);
        set.append(&mut t.set);
        if get_keys_per_bucket.len() < t.get_keys.len() {
            get_keys_per_bucket.resize(t.get_keys.len(), 0);
        }
        for (acc, &k) in get_keys_per_bucket.iter_mut().zip(&t.get_keys) {
            *acc += k;
        }
        recorded.push(std::mem::take(&mut t.recorded));
        errors.extend(t.error.take());
    }
    let end = threads.iter().map(|t| t.end).max().unwrap_or(origin);
    // A bucket is full when the run outlasted it: every connection was
    // still issuing requests until the deadline or its own cap.
    let first_end = threads.iter().map(|t| t.end).min().unwrap_or(origin);
    let full_buckets = ((first_end - origin).as_secs_f64() / BUCKET.as_secs_f64()) as usize;
    // An unreadable /proc/stat counts as no steal.
    let steal_per_bucket = ticks
        .windows(2)
        .take(full_buckets)
        .map(|t| match (&t[0], &t[1]) {
            (Ok(a), Ok(b)) => procfs::steal_frac(*a, *b),
            _ => 0.0,
        })
        .collect();
    ClientRun {
        total,
        get,
        set,
        get_keys_per_bucket,
        full_buckets,
        steal_per_bucket,
        elapsed_s: (end - origin).as_secs_f64(),
        connections: w.connections,
        threads,
        recorded,
        errors,
    }
}

fn connection_loop(addr: SocketAddr, sh: &Shared<'_>, seed: u64) -> ThreadRun {
    let start = Instant::now();
    let cpu0 = procfs::thread_self().unwrap_or_default();
    let mut out = ThreadRun {
        counts: Counts::default(),
        cpu: SchedStat::default(),
        start,
        end: start,
        get: Vec::new(),
        set: Vec::new(),
        get_keys: Vec::new(),
        recorded: Vec::new(),
        error: None,
    };
    if let Err(e) = look_aside(addr, sh, seed, &mut out) {
        out.error = Some(e.to_string());
    }
    out.cpu = procfs::thread_self().unwrap_or_default().since(cpu0);
    out.end = Instant::now();
    out
}

fn look_aside(
    addr: SocketAddr,
    sh: &Shared<'_>,
    seed: u64,
    out: &mut ThreadRun,
) -> std::io::Result<()> {
    let w = sh.w;
    let mut conn = Connection::connect(addr)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut ranks, mut got, mut missing) = (Vec::new(), Vec::new(), Vec::new());
    let (mut frame, mut value) = (Vec::new(), Vec::new());
    let c = &mut out.counts;
    let bucket = |t: Instant| ((t - sh.origin).as_secs_f64() / BUCKET.as_secs_f64()) as u32;
    while Instant::now() < sh.deadline && c.gets + c.sets < sh.ops_cap {
        let b = w.batch.sample_with(&mut rng).min(MAX_GET_KEYS as u64);
        ranks.clear();
        ranks.extend((0..b).map(|_| w.zipf.sample_key(&mut rng)));
        frame.clear();
        push_get(&mut frame, &w.table, &ranks);
        if sh.record && out.recorded.len() + frame.len() <= RECORD_CAP {
            out.recorded.extend_from_slice(&frame);
        }
        let t0 = Instant::now();
        conn.send(&frame)?;
        c.sent += 1;
        let reply = conn.read_response()?;
        let t1 = Instant::now();
        c.received += 1;
        let Response::Values(values) = reply else {
            c.failed += 1;
            continue;
        };
        let k = bucket(t1);
        out.get.push((k, (t1 - t0).as_secs_f64() * 1e6));
        if out.get_keys.len() <= k as usize {
            out.get_keys.resize(k as usize + 1, 0);
        }
        out.get_keys[k as usize] += b;
        c.gets += 1;
        c.get_keys += b;
        got.clear();
        for v in &values {
            match parse_rank(&v.key) {
                Some(r) => {
                    w.values.write(r, &mut value);
                    if v.data == value {
                        got.push(r);
                    } else {
                        c.failed += 1;
                    }
                }
                None => c.failed += 1,
            }
        }
        ranks.sort_unstable();
        got.sort_unstable();
        // Multiset difference requested − returned; a returned key that
        // was not requested is a failure.
        missing.clear();
        let mut g = got.iter().peekable();
        for &r in &ranks {
            if g.peek() == Some(&&r) {
                g.next();
            } else {
                missing.push(r);
            }
        }
        c.failed += g.count() as u64;
        c.get_hits += got.len() as u64;
        missing.dedup();
        for &r in &missing {
            w.values.write(r, &mut value);
            frame.clear();
            push_set(&mut frame, w.table.key(r), &value);
            if sh.record && out.recorded.len() + frame.len() <= RECORD_CAP {
                out.recorded.extend_from_slice(&frame);
            }
            let t0 = Instant::now();
            conn.send(&frame)?;
            c.sent += 1;
            let reply = conn.read_response()?;
            let t1 = Instant::now();
            c.received += 1;
            if matches!(reply, Response::Stored) {
                out.set.push((bucket(t1), (t1 - t0).as_secs_f64() * 1e6));
                c.sets += 1;
            } else {
                c.failed += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_encode_their_key_and_are_deterministic() {
        let law = ValueLaw::new(9).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        law.write(12_345, &mut a);
        law.write(12_345, &mut b);
        assert_eq!(a, b);
        assert!(a.starts_with(b"k12345|"));
        assert_eq!(a.len(), law.len(12_345));
        let lens: Vec<usize> = (0..10_000).map(|r| law.len(r)).collect();
        assert!(lens.iter().all(|&l| (16..=VALUE_CAP).contains(&l)));
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!((250.0..400.0).contains(&mean), "mean value size {mean}");
    }

    #[test]
    fn frames_and_ranks() {
        let table = KeyTable::new(100, 2);
        let mut f = Vec::new();
        push_get(&mut f, &table, &[3, 42]);
        assert_eq!(f, b"get k3 k42\r\n");
        f.clear();
        push_set(&mut f, b"k7", b"xy");
        assert_eq!(f, b"set k7 0 0 2\r\nxy\r\n");
        assert_eq!(parse_rank(b"k42"), Some(42));
        assert_eq!(parse_rank(b"x42"), None);
    }

    #[test]
    fn bucket_statistics_use_full_buckets_only() {
        let run = ClientRun {
            total: Counts::default(),
            // Bucket 2 is partial and holds an outlier.
            get: vec![(0, 10.0), (0, 30.0), (1, 20.0), (1, 40.0), (2, 1e6)],
            set: vec![(1, 5.0)],
            get_keys_per_bucket: vec![100, 300, 7],
            full_buckets: 2,
            steal_per_bucket: vec![0.0, 0.01],
            elapsed_s: 2.4,
            connections: 1,
            threads: Vec::new(),
            recorded: Vec::new(),
            errors: Vec::new(),
        };
        // Per-bucket p50: 10 and 20 → median 15.
        assert_eq!(run.bucket_percentile(&run.get, 50.0), 15.0);
        // Per-bucket p99: 30 and 40 → 35; the partial bucket is ignored.
        assert_eq!(run.bucket_percentile(&run.get, 99.0), 35.0);
        assert_eq!(run.bucket_rate(&run.get_keys_per_bucket), 200.0);
        assert_eq!(run.ops_per_bucket(), vec![2, 3, 1]);
    }

    #[test]
    fn stolen_buckets_are_left_out() {
        let run = ClientRun {
            total: Counts::default(),
            get: vec![(0, 10.0), (1, 900.0), (2, 12.0), (3, 14.0)],
            set: Vec::new(),
            get_keys_per_bucket: vec![100, 20, 110, 120],
            full_buckets: 4,
            // Bucket 1 lost a quarter of the machine to the hypervisor.
            steal_per_bucket: vec![0.0, 0.25, 0.01, 0.02],
            elapsed_s: 4.0,
            connections: 1,
            threads: Vec::new(),
            recorded: Vec::new(),
            errors: Vec::new(),
        };
        assert_eq!(run.quiet(), vec![true, false, true, true]);
        assert_eq!(run.bucket_percentile(&run.get, 99.0), 12.0);
        assert_eq!(run.bucket_rate(&run.get_keys_per_bucket), 110.0);
    }
}
