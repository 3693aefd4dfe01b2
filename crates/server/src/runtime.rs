//! The connection runtime: two OS threads per connection (reader +
//! writer), blocking I/O, wakeups by futex rather than polling.
//!
//! Parsing, sharding and response assembly live in [`ConnDriver`] and
//! know nothing of sockets; this module only moves bytes between a
//! socket and its driver.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::protocol::handler::ConnDriver;
use crate::shard::ConnEvent;
use crate::ServerShared;

/// Serves `listener` until [`ServerShared::begin_shutdown`] is called,
/// then drains every connection and joins the shard workers.
///
/// # Errors
///
/// Returns fatal listener errors; per-connection errors only drop that
/// connection.
pub fn serve(listener: TcpListener, shared: Arc<ServerShared>) -> std::io::Result<()> {
    let registry: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut conn_threads = Vec::new();
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let id = next_conn;
        next_conn += 1;
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            registry
                .lock()
                .expect("registry poisoned")
                .insert(id, clone);
        }
        shared.curr_connections.fetch_add(1, Ordering::Relaxed);
        shared.total_connections.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(&shared);
        let conn_registry = Arc::clone(&registry);
        let handle = thread::Builder::new()
            .name(format!("memlat-conn-{id}"))
            .spawn(move || {
                serve_conn(stream, &conn_shared);
                conn_registry.lock().expect("registry poisoned").remove(&id);
                conn_shared.curr_connections.fetch_sub(1, Ordering::Relaxed);
            })
            .expect("spawn connection thread");
        conn_threads.push(handle);
    }
    // Drain: force every live connection's reader to see EOF, then let
    // the writers flush their pending responses and exit.
    for (_, s) in registry.lock().expect("registry poisoned").iter() {
        let _ = s.shutdown(Shutdown::Read);
    }
    for handle in conn_threads {
        let _ = handle.join();
    }
    shared.pool.shutdown();
    Ok(())
}

fn serve_conn(stream: TcpStream, shared: &Arc<ServerShared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (event_tx, event_rx) = mpsc::channel::<ConnEvent>();
    let driver = Arc::new(Mutex::new(ConnDriver::new(
        Arc::clone(shared),
        event_tx.clone(),
    )));

    let writer_driver = Arc::clone(&driver);
    let writer_shared = Arc::clone(shared);
    let writer = thread::Builder::new()
        .name("memlat-conn-writer".into())
        .spawn(move || {
            let mut stream = write_half;
            loop {
                let ev = event_rx.recv_timeout(Duration::from_millis(50));
                let out = {
                    let mut d = writer_driver.lock().expect("driver poisoned");
                    if let Ok(ev) = ev {
                        d.handle_event(ev);
                        // Batch: integrate whatever else already arrived.
                        while let Ok(more) = event_rx.try_recv() {
                            d.handle_event(more);
                        }
                    }
                    d.take_output()
                };
                if !out.is_empty() {
                    if stream.write_all(&out).is_err() {
                        // Client went away: unblock our reader and stop.
                        let _ = stream.shutdown(Shutdown::Both);
                        writer_shared.buffers.release(out);
                        break;
                    }
                    writer_shared
                        .bytes_written
                        .fetch_add(out.len() as u64, Ordering::Relaxed);
                }
                writer_shared.buffers.release(out);
                if writer_driver.lock().expect("driver poisoned").drained() {
                    break;
                }
            }
        })
        .expect("spawn connection writer");

    let mut reader = stream;
    let mut chunk = [0u8; 16 << 10];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                shared.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                let closing = {
                    let mut d = driver.lock().expect("driver poisoned");
                    d.on_bytes(&chunk[..n]);
                    d.closing()
                };
                let _ = event_tx.send(ConnEvent::Wake);
                if closing {
                    break;
                }
            }
        }
    }
    driver.lock().expect("driver poisoned").begin_drain();
    let _ = event_tx.send(ConnEvent::Wake);
    let _ = writer.join();
    let _ = reader.shutdown(Shutdown::Both);
}
