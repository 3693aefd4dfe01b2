//! End-to-end loopback sessions against a live in-process server:
//! protocol semantics, pipelining, error recovery, and graceful shutdown
//! with no leaked state.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use memlat_server::{start, ServerConfig, ServerHandle};

fn launch() -> ServerHandle {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        shard: memlat_server::shard::ShardConfig {
            shards: 2,
            memory_bytes: 8 << 20,
            service_exp_mean: None,
            service_seed: 7,
        },
    };
    start(&cfg).expect("server start")
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        Self {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write");
    }

    fn line(&mut self) -> String {
        let mut s = String::new();
        self.reader.read_line(&mut s).expect("read line");
        s
    }

    fn exact(&mut self, n: usize) -> Vec<u8> {
        let mut buf = vec![0u8; n];
        self.reader.read_exact(&mut buf).expect("read exact");
        buf
    }
}

#[test]
fn blocking_runtime_full_session() {
    let handle = launch();
    let mut c = Client::connect(&handle);

    c.send(b"version\r\n");
    assert!(c.line().starts_with("VERSION memlat-"));

    // Binary-safe value containing CRLF.
    c.send(b"set alpha 42 0 6\r\nab\r\ncd\r\n");
    assert_eq!(c.line(), "STORED\r\n");

    c.send(b"get alpha\r\n");
    assert_eq!(c.line(), "VALUE alpha 42 6\r\n");
    assert_eq!(c.exact(8), b"ab\r\ncd\r\n");
    assert_eq!(c.line(), "END\r\n");

    // gets exposes a CAS unique.
    c.send(b"gets alpha\r\n");
    let value_line = c.line();
    let parts: Vec<&str> = value_line.trim_end().split(' ').collect();
    assert_eq!(&parts[..4], &["VALUE", "alpha", "42", "6"]);
    assert!(parts[4].parse::<u64>().is_ok(), "{value_line:?}");
    let _ = c.exact(8);
    assert_eq!(c.line(), "END\r\n");

    // Miss produces just END; multiget mixes hits and misses in order.
    c.send(b"get nosuch\r\n");
    assert_eq!(c.line(), "END\r\n");
    c.send(b"set beta 0 0 1\r\nB\r\n");
    assert_eq!(c.line(), "STORED\r\n");
    c.send(b"get beta nosuch alpha\r\n");
    assert_eq!(c.line(), "VALUE beta 0 1\r\n");
    assert_eq!(c.exact(3), b"B\r\n");
    assert_eq!(c.line(), "VALUE alpha 42 6\r\n");
    let _ = c.exact(8);
    assert_eq!(c.line(), "END\r\n");

    // Pipelining: several commands in one write, responses in order.
    c.send(b"set g1 0 0 1 noreply\r\nX\r\nget g1\r\ndelete g1\r\nget g1\r\n");
    assert_eq!(c.line(), "VALUE g1 0 1\r\n");
    assert_eq!(c.exact(3), b"X\r\n");
    assert_eq!(c.line(), "END\r\n");
    assert_eq!(c.line(), "DELETED\r\n");
    assert_eq!(c.line(), "END\r\n");

    // delete of an absent key.
    c.send(b"delete never\r\n");
    assert_eq!(c.line(), "NOT_FOUND\r\n");

    // A protocol error keeps the connection usable.
    c.send(b"what is this\r\nget alpha\r\n");
    assert_eq!(c.line(), "ERROR\r\n");
    assert_eq!(c.line(), "VALUE alpha 42 6\r\n");
    let _ = c.exact(8);
    assert_eq!(c.line(), "END\r\n");

    // stats: spot-check classic and measurement fields.
    c.send(b"stats\r\n");
    let mut saw = std::collections::HashSet::new();
    loop {
        let line = c.line();
        if line == "END\r\n" {
            break;
        }
        let mut it = line.trim_end().splitn(3, ' ');
        assert_eq!(it.next(), Some("STAT"), "{line:?}");
        saw.insert(it.next().unwrap().to_string());
    }
    for field in [
        "uptime",
        "curr_connections",
        "cmd_get",
        "cmd_set",
        "get_hits",
        "get_misses",
        "curr_items",
        "bytes_read",
        "bytes_written",
        "peak_rss_bytes",
        "shard0_busy_ns",
        "shard1_queue_integral_ns",
    ] {
        assert!(saw.contains(field), "stats missing {field}");
    }

    // quit closes only this connection.
    c.send(b"quit\r\n");
    let mut rest = Vec::new();
    c.reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "unexpected bytes after quit: {rest:?}");

    // A fresh connection triggers graceful shutdown; server exits cleanly.
    let mut c2 = Client::connect(&handle);
    c2.send(b"shutdown\r\n");
    assert_eq!(c2.line(), "OK\r\n");
    handle.join().expect("clean shutdown");
}

#[test]
fn shutdown_drains_pipelined_work() {
    // Commands pipelined *before* shutdown must still be answered.
    let handle = launch();
    let mut c = Client::connect(&handle);
    c.send(b"set k 0 0 1\r\nv\r\nget k\r\nshutdown\r\n");
    assert_eq!(c.line(), "STORED\r\n");
    assert_eq!(c.line(), "VALUE k 0 1\r\n");
    assert_eq!(c.exact(3), b"v\r\n");
    assert_eq!(c.line(), "END\r\n");
    assert_eq!(c.line(), "OK\r\n");
    handle.join().expect("clean shutdown");
}

#[test]
fn fatal_protocol_error_closes_connection_only() {
    let handle = launch();
    let mut c = Client::connect(&handle);
    // Bad data chunk: framing lost, connection must die after the error.
    c.send(b"set k 0 0 1\r\ntoolong\r\n");
    assert!(c.line().starts_with("CLIENT_ERROR"));
    let mut rest = Vec::new();
    c.reader.read_to_end(&mut rest).expect("EOF");
    // Server itself survives.
    let mut c2 = Client::connect(&handle);
    c2.send(b"version\r\n");
    assert!(c2.line().starts_with("VERSION"));
    c2.send(b"shutdown\r\n");
    assert_eq!(c2.line(), "OK\r\n");
    handle.join().expect("clean shutdown");
}

#[test]
fn set_refused_as_too_large_drops_the_old_value() {
    // The parser accepts values up to 1 MiB, but value plus item
    // overhead must fit the largest slab chunk, so this set is refused
    // by the store. Like memcached, the failed set must not leave the
    // old value readable.
    let handle = launch();
    let mut c = Client::connect(&handle);
    c.send(b"set k 0 0 3\r\nold\r\n");
    assert_eq!(c.line(), "STORED\r\n");
    let big = 1_048_560;
    let mut frame = format!("set k 0 0 {big}\r\n").into_bytes();
    frame.resize(frame.len() + big, b'x');
    frame.extend_from_slice(b"\r\n");
    c.send(&frame);
    assert_eq!(c.line(), "SERVER_ERROR object too large for cache\r\n");
    c.send(b"get k\r\n");
    assert_eq!(c.line(), "END\r\n", "the old value outlived a failed set");
    // The key is usable again afterwards.
    c.send(b"set k 0 0 3\r\nnew\r\nget k\r\n");
    assert_eq!(c.line(), "STORED\r\n");
    assert_eq!(c.line(), "VALUE k 0 3\r\n");
    assert_eq!(c.exact(5), b"new\r\n");
    assert_eq!(c.line(), "END\r\n");
    c.send(b"shutdown\r\n");
    assert_eq!(c.line(), "OK\r\n");
    handle.join().expect("clean shutdown");
}
