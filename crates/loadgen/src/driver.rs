//! Traffic drivers.
//!
//! Two shapes of load:
//!
//! * **Open-loop streams** ([`run_streams`]) — the measurement workload.
//!   One stream per server shard reproduces the paper's GI^X/M/1 input
//!   process over a real socket: inter-batch gaps drawn from the
//!   Generalized-Pareto law at rate `(1 − q)·λ_keys`, geometric batch
//!   sizes with parameter `q`, keys drawn from the global Zipf popularity
//!   conditioned on the target shard. Every batch is one multiget and
//!   therefore exactly one job in the shard queue, so the client-side
//!   round-trip time of a batch is the shard *batch sojourn* plus the
//!   loopback floor. Pacing is open-loop: send times never wait for
//!   responses, so queueing builds in the server, not the client.
//! * **Closed-loop pipelined gets** ([`run_closed_loop`]) — the
//!   throughput workload for the `server_loopback` bench scenario.
//!
//! Both share a precomputed [`KeyTable`] mapping Zipf ranks to key bytes
//! and shard homes, so the hot loops never format strings.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use memlat_dist::{GeneralizedPareto, GeometricBatch};
use memlat_server::shard_of;
use memlat_workload::ZipfPopularity;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::{Connection, Response};

/// Precomputed key material: rank → key bytes and rank → shard home.
#[derive(Debug, Clone)]
pub struct KeyTable {
    keys: Vec<Vec<u8>>,
    shard: Vec<u16>,
}

impl KeyTable {
    /// Builds the table for `keyspace` ranks over `shards` shards.
    #[must_use]
    pub fn new(keyspace: u64, shards: usize) -> Self {
        let mut keys = Vec::with_capacity(keyspace as usize);
        let mut shard = Vec::with_capacity(keyspace as usize);
        for rank in 0..keyspace {
            let k = format!("k{rank}").into_bytes();
            shard.push(shard_of(&k, shards) as u16);
            keys.push(k);
        }
        Self { keys, shard }
    }

    /// Key bytes for `rank`.
    #[must_use]
    pub fn key(&self, rank: u64) -> &[u8] {
        &self.keys[rank as usize]
    }

    /// Shard home of `rank`.
    #[must_use]
    pub fn shard(&self, rank: u64) -> usize {
        self.shard[rank as usize] as usize
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Configuration of one open-loop per-shard stream.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Target shard (keys are conditioned onto it by rejection).
    pub shard: usize,
    /// Total shard count at the server.
    pub shards: usize,
    /// Target key arrival rate for this stream (keys/s).
    pub key_rate: f64,
    /// Geometric batch parameter `q` (mean batch `1/(1 − q)`).
    pub q: f64,
    /// Generalized-Pareto burst degree `ξ`.
    pub xi: f64,
    /// Zipf keyspace size.
    pub keyspace: u64,
    /// Zipf skew.
    pub skew: f64,
    /// Wall-clock send window (seconds).
    pub duration: f64,
    /// RNG seed for gaps, batch sizes and key draws.
    pub seed: u64,
}

/// Measurements from one open-loop stream.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Shard this stream targeted.
    pub shard: usize,
    /// Batches (multigets) sent.
    pub batches_sent: u64,
    /// Keys sent across all batches.
    pub keys_sent: u64,
    /// Keys that came back with a value.
    pub hits: u64,
    /// Keys that missed.
    pub misses: u64,
    /// Batches whose actual send lagged the schedule by more than one
    /// mean gap — pacing-health diagnostic, not a correctness gate.
    pub behind: u64,
    /// Per-batch round-trip times (seconds), in completion order.
    pub rtts: Vec<f64>,
    /// Wall-clock seconds from first scheduled send to last response.
    pub elapsed: f64,
}

/// Runs one open-loop stream against `addr`; returns when every sent
/// batch has been answered.
///
/// # Errors
///
/// Propagates socket errors from either direction.
///
/// # Panics
///
/// Panics if `spec` holds parameters the distribution constructors
/// reject (validated by the conformance harness before use).
pub fn run_stream(addr: SocketAddr, spec: &StreamSpec) -> io::Result<StreamResult> {
    let table = KeyTable::new(spec.keyspace, spec.shards);
    run_stream_with_table(addr, spec, &table)
}

/// [`run_stream`] with a caller-provided [`KeyTable`] (shared across
/// streams to avoid rebuilding it per shard).
///
/// # Errors
///
/// Propagates socket errors from either direction.
///
/// # Panics
///
/// Panics if `spec` holds parameters the distribution constructors
/// reject.
#[allow(clippy::too_many_lines)]
pub fn run_stream_with_table(
    addr: SocketAddr,
    spec: &StreamSpec,
    table: &KeyTable,
) -> io::Result<StreamResult> {
    let conn = Connection::connect(addr)?;
    let mut write_half = conn.try_clone_stream()?;

    let batch_rate = spec.key_rate * (1.0 - spec.q);
    let gap_law = GeneralizedPareto::facebook(spec.xi, batch_rate).expect("valid gap law");
    let batch_law = GeometricBatch::new(spec.q).expect("valid batch law");
    let zipf = ZipfPopularity::new(spec.keyspace, spec.skew).expect("valid popularity");
    // The first draw builds the alias table; take it now, from a
    // throwaway stream, so the build does not delay the timed schedule.
    let _ = zipf.sample_key(&mut StdRng::seed_from_u64(0));
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Send timestamps and per-batch key counts, in send order. The
    // reader pops the front entry for each `get` response it completes.
    let in_flight: Arc<Mutex<VecDeque<(Instant, u64)>>> = Arc::new(Mutex::new(VecDeque::new()));
    let sent = Arc::new(AtomicU64::new(0));
    let writer_done = Arc::new(AtomicBool::new(false));

    let reader_in_flight = Arc::clone(&in_flight);
    let reader_sent = Arc::clone(&sent);
    let reader_done = Arc::clone(&writer_done);
    let reader = thread::Builder::new()
        .name(format!("loadgen-read-{}", spec.shard))
        .spawn(
            move || -> io::Result<(Vec<f64>, u64, u64, Option<Instant>)> {
                let mut conn = conn;
                let mut rtts = Vec::new();
                let mut hits = 0u64;
                let mut misses = 0u64;
                let mut received = 0u64;
                let mut last = None;
                loop {
                    if received == reader_sent.load(Ordering::Acquire)
                        && reader_done.load(Ordering::Acquire)
                    {
                        break;
                    }
                    match conn.read_response()? {
                        Response::Values(values) => {
                            let now = Instant::now();
                            let (sent_at, keys) = reader_in_flight
                                .lock()
                                .expect("in-flight queue poisoned")
                                .pop_front()
                                .ok_or_else(|| {
                                    io::Error::new(
                                        io::ErrorKind::InvalidData,
                                        "response without matching request",
                                    )
                                })?;
                            rtts.push(now.duration_since(sent_at).as_secs_f64());
                            hits += values.len() as u64;
                            misses += keys.saturating_sub(values.len() as u64);
                            received += 1;
                            last = Some(now);
                        }
                        other => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("unexpected response under get load: {other:?}"),
                            ))
                        }
                    }
                }
                Ok((rtts, hits, misses, last))
            },
        )
        .expect("spawn stream reader");

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(spec.duration);
    let mean_gap = Duration::from_secs_f64(1.0 / batch_rate);
    let mut next_send = start;
    let mut frame = Vec::with_capacity(512);
    let mut batches = 0u64;
    let mut keys_sent = 0u64;
    let mut behind = 0u64;
    let write_err = loop {
        next_send += Duration::from_secs_f64(gap_law.sample_with(&mut rng));
        if next_send >= deadline {
            break None;
        }
        let batch = batch_law.sample_with(&mut rng).max(1);
        frame.clear();
        frame.extend_from_slice(b"get");
        for _ in 0..batch {
            // Rejection-sample the global Zipf down to this shard.
            let rank = loop {
                let r = zipf.sample_key(&mut rng);
                if table.shard(r) == spec.shard {
                    break r;
                }
            };
            frame.push(b' ');
            frame.extend_from_slice(table.key(rank));
        }
        frame.extend_from_slice(b"\r\n");

        let now = Instant::now();
        if now < next_send {
            thread::sleep(next_send - now);
        } else if now.duration_since(next_send) > mean_gap {
            behind += 1;
        }
        in_flight
            .lock()
            .expect("in-flight queue poisoned")
            .push_back((Instant::now(), batch));
        if let Err(e) = write_half.write_all(&frame) {
            // Roll back the entry the reader will never see.
            in_flight
                .lock()
                .expect("in-flight queue poisoned")
                .pop_back();
            break Some(e);
        }
        sent.fetch_add(1, Ordering::Release);
        batches += 1;
        keys_sent += batch;
    };
    writer_done.store(true, Ordering::Release);

    let (rtts, hits, misses, last) = reader
        .join()
        .map_err(|_| io::Error::other("stream reader panicked"))??;
    if let Some(e) = write_err {
        return Err(e);
    }
    let elapsed = last
        .map_or(spec.duration, |t| t.duration_since(start).as_secs_f64())
        .max(spec.duration);
    Ok(StreamResult {
        shard: spec.shard,
        batches_sent: batches,
        keys_sent,
        hits,
        misses,
        behind,
        rtts,
        elapsed,
    })
}

/// Runs one stream per spec concurrently (a shared [`KeyTable`] is built
/// once); returns results in spec order.
///
/// # Errors
///
/// Returns the first stream error encountered.
///
/// # Panics
///
/// Panics if the specs disagree on `shards`/`keyspace` (caller bug).
pub fn run_streams(addr: SocketAddr, specs: &[StreamSpec]) -> io::Result<Vec<StreamResult>> {
    let Some(first) = specs.first() else {
        return Ok(Vec::new());
    };
    assert!(
        specs
            .iter()
            .all(|s| s.shards == first.shards && s.keyspace == first.keyspace),
        "streams must share one key table"
    );
    let table = Arc::new(KeyTable::new(first.keyspace, first.shards));
    let handles: Vec<_> = specs
        .iter()
        .map(|spec| {
            let spec = spec.clone();
            let table = Arc::clone(&table);
            thread::Builder::new()
                .name(format!("loadgen-stream-{}", spec.shard))
                .spawn(move || run_stream_with_table(addr, &spec, &table))
                .expect("spawn stream")
        })
        .collect();
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(
            h.join()
                .map_err(|_| io::Error::other("stream panicked"))??,
        );
    }
    Ok(out)
}

/// Preloads `keyspace` keys (`k0 … k{keyspace−1}`) with `value_len`-byte
/// payloads via pipelined `set … noreply`, with a `version` round-trip
/// every 128 sets for flow control.
///
/// # Errors
///
/// Propagates socket errors and unexpected replies.
pub fn preload(addr: SocketAddr, keyspace: u64, value_len: usize) -> io::Result<()> {
    let mut conn = Connection::connect(addr)?;
    let payload = vec![b'v'; value_len];
    let mut frame = Vec::with_capacity(128 * (value_len + 48));
    for rank in 0..keyspace {
        frame.extend_from_slice(format!("set k{rank} 0 0 {value_len} noreply\r\n").as_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(b"\r\n");
        if rank % 128 == 127 || rank + 1 == keyspace {
            frame.extend_from_slice(b"version\r\n");
            conn.send(&frame)?;
            frame.clear();
            match conn.read_response()? {
                Response::Version(_) => {}
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("preload sync failed: {other:?}"),
                    ))
                }
            }
        }
    }
    Ok(())
}

/// Estimates the loopback floor `T̂_N`: the median round-trip of
/// `probes` sequential `set` operations (sets bypass the server's
/// service-time injection, so their RTT is network + parse + dispatch
/// overhead only).
///
/// # Errors
///
/// Propagates socket errors.
pub fn measure_network_floor(addr: SocketAddr, probes: usize) -> io::Result<f64> {
    let mut conn = Connection::connect(addr)?;
    let mut rtts = Vec::with_capacity(probes);
    for i in 0..probes {
        let key = format!("tnprobe{}", i % 8);
        let start = Instant::now();
        conn.set(key.as_bytes(), b"p")?;
        rtts.push(start.elapsed().as_secs_f64());
    }
    rtts.sort_by(f64::total_cmp);
    Ok(rtts[rtts.len() / 2])
}

/// Closed-loop bench configuration.
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Concurrent connections.
    pub connections: usize,
    /// Pipelined requests outstanding per connection.
    pub depth: usize,
    /// Wall-clock measurement window (seconds).
    pub duration: f64,
    /// Zipf keyspace size (must be preloaded).
    pub keyspace: u64,
    /// Zipf skew.
    pub skew: f64,
    /// Base RNG seed (per-connection streams derive from it).
    pub seed: u64,
}

/// Closed-loop bench outcome.
#[derive(Debug, Clone)]
pub struct ClosedLoopResult {
    /// Single-key get requests completed inside the window.
    pub requests: u64,
    /// Hits among them.
    pub hits: u64,
    /// Wall-clock seconds actually spent (longest connection).
    pub elapsed: f64,
}

/// Drives `connections` pipelined closed loops of single-key gets for
/// `duration` seconds and reports aggregate throughput inputs.
///
/// # Errors
///
/// Returns the first connection error encountered.
///
/// # Panics
///
/// Panics on invalid Zipf parameters.
pub fn run_closed_loop(addr: SocketAddr, cfg: &ClosedLoopConfig) -> io::Result<ClosedLoopResult> {
    let zipf = ZipfPopularity::new(cfg.keyspace, cfg.skew).expect("valid popularity");
    // Build the alias table (on its first draw) before any connection
    // starts its clock.
    let _ = zipf.sample_key(&mut StdRng::seed_from_u64(0));
    let zipf = Arc::new(zipf);
    let handles: Vec<_> = (0..cfg.connections)
        .map(|c| {
            let zipf = Arc::clone(&zipf);
            let cfg = cfg.clone();
            thread::Builder::new()
                .name(format!("loadgen-loop-{c}"))
                .spawn(move || -> io::Result<(u64, u64, f64)> {
                    let mut conn = Connection::connect(addr)?;
                    let mut rng =
                        StdRng::seed_from_u64(cfg.seed ^ (c as u64).wrapping_mul(0x9E37_79B9));
                    let mut frame = Vec::with_capacity(64);
                    let mut send_get = |conn: &mut Connection, rng: &mut StdRng| {
                        frame.clear();
                        frame.extend_from_slice(b"get k");
                        frame.extend_from_slice(zipf.sample_key(rng).to_string().as_bytes());
                        frame.extend_from_slice(b"\r\n");
                        conn.send(&frame)
                    };
                    for _ in 0..cfg.depth {
                        send_get(&mut conn, &mut rng)?;
                    }
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(cfg.duration);
                    let mut requests = 0u64;
                    let mut hits = 0u64;
                    while Instant::now() < deadline {
                        match conn.read_response()? {
                            Response::Values(v) => {
                                requests += 1;
                                hits += u64::from(!v.is_empty());
                            }
                            other => {
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("unexpected bench response: {other:?}"),
                                ))
                            }
                        }
                        send_get(&mut conn, &mut rng)?;
                    }
                    // Drain the pipeline so the server sees a clean close.
                    for _ in 0..cfg.depth {
                        let _ = conn.read_response()?;
                    }
                    Ok((requests, hits, start.elapsed().as_secs_f64()))
                })
                .expect("spawn closed loop")
        })
        .collect();
    let mut requests = 0;
    let mut hits = 0;
    let mut elapsed = 0f64;
    for h in handles {
        let (r, hh, e) = h.join().map_err(|_| io::Error::other("loop panicked"))??;
        requests += r;
        hits += hh;
        elapsed = elapsed.max(e);
    }
    Ok(ClosedLoopResult {
        requests,
        hits,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_table_matches_server_hash() {
        let table = KeyTable::new(64, 4);
        assert_eq!(table.len(), 64);
        assert!(!table.is_empty());
        for rank in 0..64u64 {
            let key = format!("k{rank}");
            assert_eq!(table.key(rank), key.as_bytes());
            assert_eq!(table.shard(rank), shard_of(key.as_bytes(), 4));
        }
        // All shards get a nonempty slice of a 64-rank space.
        for shard in 0..4 {
            assert!((0..64).any(|r| table.shard(r) == shard));
        }
    }
}
