//! `server_etc`: the real `memlat-server` binary, started as a child
//! process and driven over loopback by the benchmark's own look-aside
//! client (see [`crate::client`]).
//!
//! Set-up launches the child, waits for its `LISTENING` line, preloads
//! a fixed number of the hottest keys (more than the slabs hold), and
//! runs a fixed number of look-aside operations; that the hit ratio has
//! levelled off by then is checked, not waited for. The timed window is
//! a closed loop of one outstanding request per connection. Each set-up
//! and the window start on a quiet host (see [`procfs::wait_for_quiet`]).

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use memlat_cache::{Bytes, Store, StoreConfig};
use memlat_loadgen::{Connection, Response, RunningServer, ServerSource, ServerSpec};
use memlat_server::protocol::parser::{parse, Command, Parsed};
use memlat_server::{fnv1a, shard_of};

use crate::client::{self, ClientRun, Limit, Workload};
use crate::procfs::{self, SchedStat};
use crate::report::Metric;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Server shards (worker threads).
pub const SHARDS: usize = 2;
/// Slab memory per shard, MiB.
pub const MEMORY_MB_PER_SHARD: usize = 32;
/// Distinct keys; their values total ~5× the slab budget.
pub const KEYSPACE: u64 = 1_000_000;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Ranks preloaded, coldest first. The slabs fill at ~110 000 of them
/// for every seed, so the preload evicts (checked) the coldest ranks
/// and leaves the hottest cached. Value sizes do not depend on rank, so
/// every slab class gets its pages before memory runs out.
const PRELOAD_RANKS: u64 = 131_072;
/// Look-aside warm-up window: a fixed amount of work per connection, so
/// set-up time and the server's footprint do not depend on host speed
/// (the time limit only guards against a stalled server).
const WARMUP_WINDOW: Limit = Limit {
    length: Duration::from_secs(10),
    ops_per_connection: 10_000,
};
/// Warm-up windows: a fixed count, so set-up is a fixed amount of work.
const WARMUP_WINDOWS: usize = 3;
/// The last two warm-up windows' hit ratios must differ by less than
/// this. A window's hit ratio has a sampling error of ~0.004 at ~11 000
/// keys, so this is five standard errors of a difference: only a real
/// trend fails the check.
const WARMUP_LEVEL: f64 = 0.03;
/// Longest wait for a quiet host before each set-up…
const SETUP_QUIET_WAIT: Duration = Duration::from_secs(3);
/// …and before the timed window of an untraced run.
const WINDOW_QUIET_WAIT: Duration = Duration::from_secs(5);
/// `version` round trips for the runtime floor.
const FLOOR_PROBES: usize = 2_000;

/// A launched server child and what set-up cost.
pub struct Launched {
    server: RunningServer,
    /// Seconds waited for a quiet host before the launch, and the last
    /// steal probe.
    pub quiet_wait: (f64, f64),
    /// The set-up.
    pub setup: Setup,
}

/// What a set-up did and cost.
pub struct Setup {
    /// The child's pid (from `stats`).
    pub pid: u32,
    /// Host seconds from launch to the end of the warm-up.
    pub setup_s: f64,
    /// Share of the machine's CPU time stolen during the set-up.
    pub setup_steal: f64,
    /// The child's peak RSS (`VmHWM`) at the end of the set-up, MiB: a
    /// reading after a fixed amount of work (the server's memory grows
    /// with the distinct keys it has seen).
    pub peak_rss_mb: f64,
    /// Evictions during the preload.
    pub preload_evictions: u64,
    /// Hit ratio of each warm-up window.
    pub warmup_hits: Vec<f64>,
}

impl Launched {
    /// The server's address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Sends `shutdown` and waits for the child to exit.
    ///
    /// # Errors
    ///
    /// The shutdown probe failed or the child did not exit cleanly.
    pub fn stop(self) -> Result<(), String> {
        let report = self.server.shutdown().map_err(|e| e.to_string())?;
        if report.clean {
            Ok(())
        } else {
            Err("server did not shut down cleanly".into())
        }
    }
}

/// Waits for a quiet host, then launches the child and fills it:
/// preload, then look-aside warm-up.
///
/// # Errors
///
/// Launch, socket or protocol failures.
pub fn launch(bin: &Path, w: &Workload) -> Result<Launched, String> {
    let quiet_wait = procfs::wait_for_quiet(SETUP_QUIET_WAIT).map_err(|e| e.to_string())?;
    let ticks = procfs::cpu_ticks().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let spec = ServerSpec {
        shards: SHARDS,
        memory_bytes: MEMORY_MB_PER_SHARD << 20,
        ..ServerSpec::default()
    };
    let server = RunningServer::launch(&ServerSource::Child(bin.to_path_buf()), &spec)
        .map_err(|e| format!("launch {}: {e}", bin.display()))?;
    match fill(server.addr(), w, t0, ticks) {
        Ok(setup) => Ok(Launched {
            server,
            quiet_wait,
            setup,
        }),
        Err(e) => {
            // Stop the child before reporting; its own error is secondary.
            let _ = server.shutdown();
            Err(e)
        }
    }
}

/// Preloads, then runs the look-aside warm-up windows, of a set-up that
/// started at `t0` with the machine's CPU ticks at `ticks`.
fn fill(addr: SocketAddr, w: &Workload, t0: Instant, ticks: (u64, u64)) -> Result<Setup, String> {
    let mut admin = Connection::connect(addr).map_err(|e| e.to_string())?;
    let pid = stat(&mut admin, "pid")? as u32;
    preload(addr, w)?;
    let evictions = stat(&mut admin, "evictions")?;
    let mut hits = Vec::with_capacity(WARMUP_WINDOWS);
    for window in 0..WARMUP_WINDOWS {
        let seed = client::mix(w.seed, 0x3a4d_0000 + window as u64);
        let run = client::run(addr, w, seed, WARMUP_WINDOW, false);
        if let Some(e) = run.error() {
            return Err(format!("warm-up: {e}"));
        }
        if run.total.failed > 0 {
            return Err(format!("warm-up: {} failed operations", run.total.failed));
        }
        hits.push(run.hit_ratio());
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let now = procfs::cpu_ticks().map_err(|e| e.to_string())?;
    Ok(Setup {
        pid,
        setup_s,
        setup_steal: procfs::steal_frac(ticks, now),
        peak_rss_mb: procfs::peak_rss_mb(Some(pid)).map_err(|e| e.to_string())?,
        preload_evictions: evictions,
        warmup_hits: hits,
    })
}

/// The set-up's correctness checks: the preload overfilled the slabs,
/// and the warm-up's hit ratio levelled off.
fn check_setup(s: &Setup) -> Vec<String> {
    let mut bad = Vec::new();
    if s.preload_evictions == 0 {
        bad.push(format!(
            "preloading {PRELOAD_RANKS} ranks evicted nothing: the slabs are not full"
        ));
    }
    if let [.., a, b] = s.warmup_hits[..] {
        if (b - a).abs() >= WARMUP_LEVEL {
            bad.push(format!(
                "warm-up hit ratio still moving: {:?} (last step >= {WARMUP_LEVEL})",
                s.warmup_hits
            ));
        }
    }
    bad
}

fn stat(conn: &mut Connection, key: &str) -> Result<u64, String> {
    conn.stats()
        .map_err(|e| e.to_string())?
        .get(key)
        .copied()
        .ok_or_else(|| format!("stats has no {key}"))
}

/// Sets ranks [`PRELOAD_RANKS`] − 1, …, 1, 0 (coldest first) with
/// pipelined `set`s of 128, each reply read.
fn preload(addr: SocketAddr, w: &Workload) -> Result<(), String> {
    let mut conn = Connection::connect(addr).map_err(|e| e.to_string())?;
    let mut frame = Vec::with_capacity(128 * 4_200);
    let mut value = Vec::new();
    let mut rank = PRELOAD_RANKS.min(w.keyspace);
    while rank > 0 {
        frame.clear();
        let n = 128.min(rank);
        for r in (rank - n..rank).rev() {
            w.values.write(r, &mut value);
            client::push_set(&mut frame, w.table.key(r), &value);
        }
        conn.send(&frame).map_err(|e| e.to_string())?;
        for _ in 0..n {
            match conn.read_response().map_err(|e| e.to_string())? {
                Response::Stored => {}
                other => return Err(format!("preload set rejected: {other:?}")),
            }
        }
        rank -= n;
    }
    Ok(())
}

/// Server-side counters over a window.
#[derive(Debug, Clone, Copy, Default)]
struct ServerDelta {
    cmd_get: u64,
    cmd_set: u64,
    get_keys: u64,
    busy_ns: u64,
    sojourn_ns: u64,
    jobs: u64,
    keys_served: u64,
    sched: SchedStat,
}

fn snapshot(admin: &mut Connection, pid: u32) -> Result<ServerDelta, String> {
    let s = admin.stats().map_err(|e| e.to_string())?;
    let get = |k: &str| s.get(k).copied().unwrap_or(0);
    let shard_sum = |suffix: &str| -> u64 {
        (0..SHARDS)
            .map(|j| get(&format!("shard{j}_{suffix}")))
            .sum()
    };
    Ok(ServerDelta {
        cmd_get: get("cmd_get"),
        cmd_set: get("cmd_set"),
        get_keys: get("get_hits") + get("get_misses"),
        busy_ns: shard_sum("busy_ns"),
        sojourn_ns: shard_sum("sojourn_ns"),
        jobs: shard_sum("jobs"),
        keys_served: shard_sum("keys_served"),
        sched: procfs::process(pid).map_err(|e| e.to_string())?,
    })
}

impl ServerDelta {
    fn since(self, a: Self) -> Self {
        Self {
            cmd_get: self.cmd_get - a.cmd_get,
            cmd_set: self.cmd_set - a.cmd_set,
            get_keys: self.get_keys - a.get_keys,
            busy_ns: self.busy_ns - a.busy_ns,
            sojourn_ns: self.sojourn_ns - a.sojourn_ns,
            jobs: self.jobs - a.jobs,
            keys_served: self.keys_served - a.keys_served,
            sched: self.sched.since(a.sched),
        }
    }
}

/// One measured window: the client's view plus the server's counters.
struct Window {
    run: ClientRun,
    server: ServerDelta,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    steal: f64,
}

fn window(
    l: &Launched,
    w: &Workload,
    seed: u64,
    length: Duration,
    record: bool,
) -> Result<Window, String> {
    let mut admin = Connection::connect(l.addr()).map_err(|e| e.to_string())?;
    let before = snapshot(&mut admin, l.setup.pid)?;
    let ticks = procfs::cpu_ticks().map_err(|e| e.to_string())?;
    let run = client::run(l.addr(), w, seed, Limit::time(length), record);
    let steal = procfs::steal_frac(ticks, procfs::cpu_ticks().map_err(|e| e.to_string())?);
    let after = snapshot(&mut admin, l.setup.pid)?;
    Ok(Window {
        run,
        server: after.since(before),
        steal,
    })
}

/// The window's correctness checks; each failure is one message.
fn check_window(win: &Window) -> Vec<String> {
    let mut bad = Vec::new();
    let r = &win.run;
    if let Some(e) = r.error() {
        bad.push(format!("client error: {e}"));
    }
    if r.total.failed > 0 {
        bad.push(format!(
            "{} failed operations (error replies or wrong values)",
            r.total.failed
        ));
    }
    if r.total.sent != r.total.received {
        bad.push(format!(
            "{} requests sent, {} replies received",
            r.total.sent, r.total.received
        ));
    }
    let s = &win.server;
    if s.cmd_get != r.total.gets || s.cmd_set != r.total.sets {
        bad.push(format!(
            "server counted {} gets / {} sets, client sent {} / {}",
            s.cmd_get, s.cmd_set, r.total.gets, r.total.sets
        ));
    }
    if s.get_keys != r.total.get_keys {
        bad.push(format!(
            "server looked up {} keys, client requested {}",
            s.get_keys, r.total.get_keys
        ));
    }
    bad
}

/// Result of a run.
pub struct RunResult {
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Failed checks (empty when correct).
    pub failures: Vec<String>,
    /// Operations attempted in the measured windows.
    pub attempted: u64,
    /// Operations failed in the measured windows.
    pub failed: u64,
    /// Human-readable notes.
    pub notes: Vec<String>,
}

/// [`SETUPS`] set-ups (the last one serves the window), then the timed
/// window.
///
/// # Errors
///
/// Launch or socket failures before the window.
pub fn untraced(bin: &Path, w: &Workload, seconds: f64) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup_steal = Vec::with_capacity(SETUPS);
    let mut rss = Vec::with_capacity(SETUPS);
    let mut waits = Vec::with_capacity(SETUPS + 1);
    let mut failures = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let l = launch(bin, w)?;
        setups.push(l.setup.setup_s);
        setup_steal.push(l.setup.setup_steal);
        rss.push(l.setup.peak_rss_mb);
        waits.push(l.quiet_wait);
        failures.extend(check_setup(&l.setup));
        if i + 1 < SETUPS {
            l.stop()?;
        } else {
            live = Some(l);
        }
    }
    let l = live.expect("at least one set-up");
    let warmup_hits = l.setup.warmup_hits.clone();
    let win = procfs::wait_for_quiet(WINDOW_QUIET_WAIT)
        .map_err(|e| e.to_string())
        .and_then(|wait| {
            waits.push(wait);
            window(&l, w, w.seed, Duration::from_secs_f64(seconds), false)
        });
    let stopped = l.stop();
    let win = win?;
    failures.extend(check_window(&win));
    if let Err(e) = stopped {
        failures.push(e);
    }
    let r = &win.run;
    // Set-ups the hypervisor left alone (every one on a quiet host).
    let quiet_setups: Vec<f64> = setups
        .iter()
        .zip(procfs::quiet(&setup_steal))
        .filter_map(|(&x, q)| q.then_some(x))
        .collect();
    let metrics = vec![
        Metric::new("setup_s", median(&quiet_setups), "s"),
        Metric::new("keys_per_s", r.bucket_rate(&r.get_keys_per_bucket), "1/s"),
        Metric::new("ops_per_s", r.bucket_rate(&r.ops_per_bucket()), "1/s"),
        Metric::new("peak_rss_mb", median(&rss), "MiB"),
        Metric::new("get_p50_us", r.bucket_percentile(&r.get, 50.0), "us"),
        Metric::new("get_p99_us", r.bucket_percentile(&r.get, 99.0), "us"),
        Metric::new("set_p50_us", r.bucket_percentile(&r.set, 50.0), "us"),
        Metric::new("set_p99_us", r.bucket_percentile(&r.set, 99.0), "us"),
        Metric::new("hit_ratio", r.hit_ratio(), "ratio"),
    ];
    let (mut get_all, mut set_all): (Vec<f64>, Vec<f64>) = (
        r.get.iter().map(|&(_, x)| x).collect(),
        r.set.iter().map(|&(_, x)| x).collect(),
    );
    let notes = vec![
        format!(
            "set-ups {setups:?} s (steal {setup_steal:.3?}); {PRELOAD_RANKS} ranks preloaded; \
             warm-up hit ratios {warmup_hits:.4?}; server peak RSS after set-up {rss:?} MiB; \
             {} connections; hypervisor steal {:.1}% of machine CPU during the window",
            r.connections,
            100.0 * win.steal
        ),
        format!(
            "quiet-host waits before each set-up and window (s, last steal probe): \
             {waits:.2?}"
        ),
        format!(
            "window {:.2} s ({} full one-second buckets): {} gets ({} keys, {} hits), {} sets",
            r.elapsed_s,
            r.full_buckets,
            r.total.gets,
            r.total.get_keys,
            r.total.get_hits,
            r.total.sets,
        ),
        format!(
            "whole window: get p50 {:.1} / p99 {:.1} us over {} samples, set p50 {:.1} / \
             p99 {:.1} us over {} samples",
            percentile(&mut get_all, 50.0),
            percentile(&mut get_all, 99.0),
            get_all.len(),
            percentile(&mut set_all, 50.0),
            percentile(&mut set_all, 99.0),
            set_all.len(),
        ),
        format!(
            "per-second get p99 (us): {:.0?}; per-second get keys: {:?}",
            r.bucket_percentiles(&r.get, 99.0),
            &r.get_keys_per_bucket[..r.full_buckets.min(r.get_keys_per_bucket.len())],
        ),
        format!(
            "per-second steal (%): {:.1?}; quiet seconds measured: {:?}",
            r.steal_per_bucket
                .iter()
                .map(|x| 100.0 * x)
                .collect::<Vec<_>>(),
            r.quiet()
                .iter()
                .enumerate()
                .filter_map(|(b, &q)| q.then_some(b))
                .collect::<Vec<_>>(),
        ),
    ];
    Ok(RunResult {
        metrics,
        failures,
        attempted: r.total.gets + r.total.sets,
        failed: r.total.failed,
        notes,
    })
}

/// Mean host µs per operation of a window.
fn mean_op_us(r: &ClientRun) -> f64 {
    let ops = (r.total.gets + r.total.sets) as f64;
    r.elapsed_s * 1e6 * r.connections as f64 / ops.max(1.0)
}

/// The traced run: one set-up, an untraced and a traced window of
/// `seconds / 2` each, the runtime floor, then the traced window's
/// commands replayed in-process through the parser and the store.
///
/// # Errors
///
/// Launch or socket failures.
pub fn traced(
    bin: &Path,
    w: &Workload,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<RunResult, String> {
    let half = Duration::from_secs_f64((seconds / 2.0).max(0.5));
    let l = launch(bin, w)?;
    tracer.set_run(1);
    let plain = window(&l, w, w.seed, half, false);
    let root = tracer.open("server_etc.traced_window", None);
    let traced_win = window(&l, w, client::mix(w.seed, 0x7ace), half, true);
    tracer.close(root);
    let floor = tracer.time("runtime.floor", None, || floor_us(l.addr()));
    let mut failures = check_setup(&l.setup);
    let stopped = l.stop();
    let (plain, win, floor) = (plain?, traced_win?, floor?);
    failures.extend(check_window(&plain));
    failures.extend(check_window(&win));
    if let Err(e) = stopped {
        failures.push(e);
    }
    for t in &win.run.threads {
        tracer.record(
            "loadgen.thread",
            Some(root),
            tracer.at(t.start),
            tracer.at(t.end),
        );
    }

    let (parse_ns, cmds, replay) = replay(w, &win.run.recorded, tracer)?;
    let r = &win.run;
    let s = &win.server;
    let ops = (r.total.gets + r.total.sets) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let client_cpu: u64 = r.threads.iter().map(|t| t.cpu.cpu_ns).sum();
    let plain_op = mean_op_us(&plain.run);
    let metrics = vec![
        Metric::new("runtime.floor_us", floor, "us"),
        Metric::new("host.steal_frac", win.steal, "ratio"),
        Metric::new(
            "protocol.parse_ns_per_cmd",
            per(parse_ns, cmds as f64),
            "ns",
        ),
        Metric::new(
            "shard.service_ns_per_key",
            per(s.busy_ns as f64, s.keys_served as f64),
            "ns",
        ),
        Metric::new(
            "shard.queue_wait_us",
            per(
                s.sojourn_ns.saturating_sub(s.busy_ns) as f64 * 1e-3,
                s.jobs as f64,
            ),
            "us",
        ),
        Metric::new(
            "shard.jobs_per_get",
            per(s.jobs.saturating_sub(s.cmd_set) as f64, s.cmd_get as f64),
            "ratio",
        ),
        Metric::new(
            "server.cpu_us_per_op",
            per(s.sched.cpu_ns as f64 * 1e-3, ops),
            "us",
        ),
        Metric::new(
            "server.runq_wait_us_per_op",
            per(s.sched.wait_ns as f64 * 1e-3, ops),
            "us",
        ),
        Metric::new(
            "loadgen.cpu_us_per_op",
            per(client_cpu as f64 * 1e-3, ops),
            "us",
        ),
        Metric::new(
            "cache.store.get_ns",
            per(replay.get_ns, replay.gets as f64),
            "ns",
        ),
        Metric::new(
            "cache.store.set_ns",
            per(replay.set_ns, replay.sets as f64),
            "ns",
        ),
        Metric::new(
            "cache.store.evictions_per_set",
            per(replay.evictions as f64, replay.sets as f64),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_frac",
            per(mean_op_us(r) - plain_op, plain_op),
            "ratio",
        ),
    ];
    let notes = vec![format!(
        "traced window: {} ops, {} bytes recorded, {cmds} commands replayed",
        ops,
        r.recorded.iter().map(Vec::len).sum::<usize>()
    )];
    Ok(RunResult {
        metrics,
        failures,
        attempted: plain.run.total.gets + plain.run.total.sets + r.total.gets + r.total.sets,
        failed: plain.run.total.failed + r.total.failed,
        notes,
    })
}

/// Median round trip of `version` on an idle connection, µs: the
/// runtime's floor with no shard work.
fn floor_us(addr: SocketAddr) -> Result<f64, String> {
    let mut conn = Connection::connect(addr).map_err(|e| e.to_string())?;
    let mut rtts = Vec::with_capacity(FLOOR_PROBES);
    for _ in 0..FLOOR_PROBES {
        let t0 = Instant::now();
        conn.send(b"version\r\n").map_err(|e| e.to_string())?;
        match conn.read_response().map_err(|e| e.to_string())? {
            Response::Version(_) => {}
            other => return Err(format!("version rejected: {other:?}")),
        }
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&rtts))
}

#[derive(Debug, Default)]
struct StoreReplay {
    gets: u64,
    get_ns: f64,
    sets: u64,
    set_ns: f64,
    evictions: u64,
}

/// Parses the recorded request bytes (timing the parser alone), then
/// replays the commands through one store per shard, each first filled
/// with the [`PRELOAD_RANKS`] hottest ranks, coldest first, as the server's
/// preload filled it.
fn replay(
    w: &Workload,
    recorded: &[Vec<u8>],
    tracer: &mut Tracer,
) -> Result<(f64, u64, StoreReplay), String> {
    let mut parse_ns = 0.0;
    let mut cmds = 0u64;
    for buf in recorded {
        let t0 = tracer.now_ns();
        let mut pos = 0;
        let mut n = 0u64;
        while pos < buf.len() {
            match parse(&buf[pos..]) {
                Parsed::Cmd { cmd, consumed } => {
                    std::hint::black_box(&cmd);
                    pos += consumed;
                    n += 1;
                }
                other => return Err(format!("recorded stream did not parse: {other:?}")),
            }
        }
        let t1 = tracer.now_ns();
        tracer.record("protocol.parse", None, t0, t1);
        parse_ns += (t1 - t0) as f64;
        cmds += n;
    }

    let mut stores = (0..SHARDS)
        .map(|_| Store::new(StoreConfig::with_memory(MEMORY_MB_PER_SHARD << 20)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut value = Vec::new();
    for rank in (0..PRELOAD_RANKS.min(w.keyspace)).rev() {
        let key = w.table.key(rank);
        w.values.write(rank, &mut value);
        stores[shard_of(key, SHARDS)]
            .set_with_payload(fnv1a(key), Bytes::copy_from_slice(&value), None, 0.0)
            .map_err(|e| e.to_string())?;
    }
    let before: u64 = stores.iter().map(|s| s.stats().evictions).sum();
    let overhead = crate::trace::clock_overhead_ns();
    let mut out = StoreReplay::default();
    let span = tracer.open("cache.store", None);
    for buf in recorded {
        let mut pos = 0;
        while pos < buf.len() {
            let Parsed::Cmd { cmd, consumed } = parse(&buf[pos..]) else {
                break;
            };
            pos += consumed;
            match cmd {
                Command::Get { keys, .. } => {
                    for key in keys {
                        let store = &mut stores[shard_of(key, SHARDS)];
                        let t0 = Instant::now();
                        std::hint::black_box(store.get(fnv1a(key), 1.0));
                        out.get_ns += (t0.elapsed().as_nanos() as f64 - overhead).max(0.0);
                        out.gets += 1;
                    }
                }
                Command::Set { key, data, .. } => {
                    let store = &mut stores[shard_of(key, SHARDS)];
                    let t0 = Instant::now();
                    let stored =
                        store.set_with_payload(fnv1a(key), Bytes::copy_from_slice(data), None, 1.0);
                    out.set_ns += (t0.elapsed().as_nanos() as f64 - overhead).max(0.0);
                    out.sets += 1;
                    stored.map_err(|e| e.to_string())?;
                }
                _ => {}
            }
        }
    }
    tracer.close(span);
    out.evictions = stores.iter().map(|s| s.stats().evictions).sum::<u64>() - before;
    Ok((parse_ns, cmds, out))
}
