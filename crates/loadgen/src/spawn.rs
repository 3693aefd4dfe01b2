//! Server lifecycle for load runs: in-process, child binary, or an
//! externally managed address — all shut down through the same admin
//! `shutdown` command so drain behaviour is exercised identically.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use memlat_server::shard::ShardConfig;
use memlat_server::{start, ServerConfig, ServerHandle};

use crate::client::{Connection, Response};

/// How to obtain a server for the run.
#[derive(Debug, Clone)]
pub enum ServerSource {
    /// Start `memlat-server` inside this process (default).
    InProcess,
    /// Spawn the given server binary as a child process and parse its
    /// `LISTENING <addr>` banner.
    Child(PathBuf),
    /// Use an already-running server (no lifecycle management; the
    /// shutdown step still sends the admin command).
    External(SocketAddr),
}

/// Server parameters shared by the in-process and child paths.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Shard count `M`.
    pub shards: usize,
    /// Cache memory budget in bytes.
    pub memory_bytes: usize,
    /// Mean injected per-key service time in seconds (None disables).
    pub service_exp_mean: Option<f64>,
    /// Injection RNG seed.
    pub service_seed: u64,
}

impl Default for ServerSpec {
    fn default() -> Self {
        Self {
            shards: 2,
            memory_bytes: 64 << 20,
            service_exp_mean: None,
            service_seed: 0x5EED,
        }
    }
}

enum Inner {
    InProcess(ServerHandle),
    Child(Child),
    External,
}

/// A launched (or adopted) server plus how to stop it.
pub struct RunningServer {
    addr: SocketAddr,
    inner: Inner,
}

/// What the shutdown step observed — the leak/drain evidence the CI
/// smoke job asserts on.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// `curr_connections` reported by the server just before shutdown
    /// (the probing connection itself is included).
    pub connections_at_shutdown: u64,
    /// Whether the server acknowledged with `OK` and (for managed
    /// servers) exited/joined cleanly.
    pub clean: bool,
}

impl RunningServer {
    /// Launches (or adopts) a server per `source`.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn errors; a child that never prints its
    /// `LISTENING` banner is an error.
    pub fn launch(source: &ServerSource, spec: &ServerSpec) -> io::Result<Self> {
        match source {
            ServerSource::InProcess => {
                let cfg = ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    shard: ShardConfig {
                        shards: spec.shards,
                        memory_bytes: spec.memory_bytes,
                        service_exp_mean: spec.service_exp_mean,
                        service_seed: spec.service_seed,
                    },
                };
                let handle = start(&cfg)?;
                Ok(Self {
                    addr: handle.addr(),
                    inner: Inner::InProcess(handle),
                })
            }
            ServerSource::Child(bin) => {
                let mut cmd = Command::new(bin);
                cmd.arg("--addr")
                    .arg("127.0.0.1:0")
                    .arg("--shards")
                    .arg(spec.shards.to_string())
                    .arg("--memory-mb")
                    .arg(((spec.memory_bytes >> 20).max(1)).to_string())
                    .arg("--service-seed")
                    .arg(spec.service_seed.to_string())
                    .stdout(Stdio::piped());
                if let Some(mean) = spec.service_exp_mean {
                    cmd.arg("--service-exp-us")
                        .arg(format!("{:.3}", mean * 1e6));
                }
                let mut child = cmd.spawn()?;
                let stdout = child
                    .stdout
                    .take()
                    .ok_or_else(|| io::Error::other("child stdout not captured"))?;
                let mut lines = BufReader::new(stdout).lines();
                let addr = loop {
                    let Some(line) = lines.next() else {
                        let _ = child.kill();
                        return Err(io::Error::other("server exited before LISTENING banner"));
                    };
                    let line = line?;
                    if let Some(rest) = line.strip_prefix("LISTENING ") {
                        break rest.trim().parse::<SocketAddr>().map_err(|e| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("bad LISTENING banner {rest:?}: {e}"),
                            )
                        })?;
                    }
                };
                // Keep draining the pipe in the background so the child
                // can never block on a full stdout buffer.
                std::thread::Builder::new()
                    .name("loadgen-child-stdout".into())
                    .spawn(move || for _ in lines {})
                    .expect("spawn stdout drain");
                Ok(Self {
                    addr,
                    inner: Inner::Child(child),
                })
            }
            ServerSource::External(addr) => Ok(Self {
                addr: *addr,
                inner: Inner::External,
            }),
        }
    }

    /// The address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends the admin `shutdown`, waits for the server to finish, and
    /// reports what the drain looked like.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the shutdown probe.
    pub fn shutdown(self) -> io::Result<ShutdownReport> {
        let mut conn = Connection::connect(self.addr)?;
        let connections_at_shutdown = conn
            .stats()?
            .get("curr_connections")
            .copied()
            .unwrap_or_default();
        conn.send(b"shutdown\r\n")?;
        let acked = matches!(conn.read_response()?, Response::Ok);
        let finished = match self.inner {
            Inner::InProcess(handle) => handle.join().is_ok(),
            Inner::Child(mut child) => child.wait().map(|s| s.success()).unwrap_or(false),
            Inner::External => true,
        };
        Ok(ShutdownReport {
            connections_at_shutdown,
            clean: acked && finished,
        })
    }
}
