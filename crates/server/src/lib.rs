//! `memlat-server` — a real memcached-protocol TCP server over the
//! `memlat-cache` slab store.
//!
//! This crate is the serving leg of the repo's three-way validation
//! (model ↔ simulator ↔ server): it speaks enough of the memcached text
//! protocol (`get`/`gets`/`set`/`delete`/`stats`/`version`/`quit`) to be
//! driven by standard tools, while its internals mirror the structure the
//! paper models — hash-partitioned stores with one worker each, whose
//! input channels are literal GI^X/M/1 queues. With `--service-exp-us`
//! the workers inject a known exponential per-key service time, making a
//! loopback measurement directly comparable to Theorem 1.
//!
//! Layering:
//!
//! * [`protocol`] — incremental parser + per-connection command driver;
//! * [`runtime`] — the socket-driving loop (blocking I/O, a reader and a
//!   writer thread per connection);
//! * [`shard`] — the partitioned stores, worker threads and metrics;
//! * [`buffer`] — pooled per-connection read/write buffers.
//!
//! # Examples
//!
//! ```
//! use memlat_server::{start, ServerConfig};
//! use std::io::{Read, Write};
//!
//! let mut cfg = ServerConfig::default();
//! cfg.addr = "127.0.0.1:0".into(); // ephemeral port
//! cfg.shard.shards = 1;
//! let handle = start(&cfg).unwrap();
//! let mut c = std::net::TcpStream::connect(handle.addr()).unwrap();
//! c.write_all(b"set k 0 0 2\r\nhi\r\nget k\r\n").unwrap();
//! let mut buf = [0u8; 128];
//! let n = c.read(&mut buf).unwrap();
//! assert!(std::str::from_utf8(&buf[..n]).unwrap().starts_with("STORED"));
//! handle.shutdown().unwrap();
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod protocol;
pub mod runtime;
pub mod shard;
pub mod stats;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use buffer::BufferPool;
use shard::{ShardConfig, ShardPool};

pub use shard::{fnv1a, shard_of};

/// Server version string reported by `version` and `stats`.
pub const VERSION: &str = "memlat-0.1.0";

/// Monotonic server clock: seconds since server start, as `f64` (matching
/// the external-time convention of `memlat-cache`).
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Starts the clock now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    /// Seconds elapsed since the clock started.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

/// State shared by every connection and the runtime.
pub struct ServerShared {
    /// The shard pool.
    pub pool: ShardPool,
    /// The server clock.
    pub clock: Clock,
    /// Pooled connection buffers.
    pub buffers: BufferPool,
    /// Set once a graceful shutdown has been requested.
    pub shutdown: AtomicBool,
    /// Bound listen address (used to self-wake the accept loop).
    pub addr: SocketAddr,
    /// Open connections.
    pub curr_connections: AtomicU64,
    /// Connections ever accepted.
    pub total_connections: AtomicU64,
    /// Bytes read from clients.
    pub bytes_read: AtomicU64,
    /// Bytes written to clients.
    pub bytes_written: AtomicU64,
    /// `get`/`gets` commands parsed.
    pub cmd_get: AtomicU64,
    /// `set` commands parsed.
    pub cmd_set: AtomicU64,
    /// `delete` commands parsed.
    pub cmd_delete: AtomicU64,
}

impl ServerShared {
    /// Requests a graceful shutdown: stops accepting, drains connections,
    /// joins shard workers. Idempotent and callable from any thread.
    pub fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Wake a blocking accept loop with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard layout and optional injected service law.
    pub shard: ShardConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:11211".into(),
            shard: ShardConfig::default(),
        }
    }
}

/// A running server: join it or shut it down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    thread: thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server state (counters, shard metrics).
    #[must_use]
    pub fn shared(&self) -> &Arc<ServerShared> {
        &self.shared
    }

    /// Blocks until the server exits (after a `shutdown` command or
    /// [`ServerShared::begin_shutdown`]).
    ///
    /// # Errors
    ///
    /// Propagates a fatal runtime error.
    pub fn join(self) -> std::io::Result<()> {
        match self.thread.join() {
            Ok(res) => res,
            Err(_) => Err(std::io::Error::other("server runtime panicked")),
        }
    }

    /// Triggers a graceful shutdown and waits for it to complete.
    ///
    /// # Errors
    ///
    /// Propagates a fatal runtime error.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.shared.begin_shutdown();
        self.join()
    }
}

/// Binds and starts a server, returning once the listener is live.
///
/// # Errors
///
/// Propagates bind failures and invalid shard configuration.
pub fn start(cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let clock = Clock::new();
    let pool = ShardPool::new(&cfg.shard, clock)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{e:?}")))?;
    let shared = Arc::new(ServerShared {
        pool,
        clock,
        buffers: BufferPool::new(16 << 10, 64),
        shutdown: AtomicBool::new(false),
        addr,
        curr_connections: AtomicU64::new(0),
        total_connections: AtomicU64::new(0),
        bytes_read: AtomicU64::new(0),
        bytes_written: AtomicU64::new(0),
        cmd_get: AtomicU64::new(0),
        cmd_set: AtomicU64::new(0),
        cmd_delete: AtomicU64::new(0),
    });
    let rt_shared = Arc::clone(&shared);
    let thread = thread::Builder::new()
        .name("memlat-runtime".into())
        .spawn(move || runtime::serve(listener, rt_shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        thread,
    })
}
