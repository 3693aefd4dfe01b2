//! The `memlat-server` binary: a memcached-text-protocol server.
//!
//! ```text
//! memlat-server [--addr HOST:PORT] [--shards N] [--memory-mb MB]
//!               [--service-exp-us MEAN] [--service-seed SEED]
//! ```
//!
//! Prints `LISTENING <addr>` once the socket is bound (so harnesses using
//! port 0 can discover the ephemeral port), then serves until a client
//! sends the `shutdown` admin command, at which point it drains all
//! connections and exits 0.

use std::process::ExitCode;

use memlat_server::{start, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: memlat-server [--addr HOST:PORT] [--shards N] [--memory-mb MB]\n\
         \x20                    [--service-exp-us MEAN_US] [--service-seed SEED]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:11211".into(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = val("--addr"),
            "--shards" => match val("--shards").parse() {
                Ok(n) if n > 0 => cfg.shard.shards = n,
                _ => usage(),
            },
            "--memory-mb" => match val("--memory-mb").parse::<usize>() {
                Ok(mb) if mb > 0 => cfg.shard.memory_bytes = mb << 20,
                _ => usage(),
            },
            "--service-exp-us" => match val("--service-exp-us").parse::<f64>() {
                Ok(us) if us > 0.0 => cfg.shard.service_exp_mean = Some(us * 1e-6),
                _ => usage(),
            },
            "--service-seed" => match val("--service-seed").parse() {
                Ok(seed) => cfg.shard.service_seed = seed,
                Err(_) => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }

    let handle = match start(&cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("memlat-server: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Announce the bound address on a line of its own; harnesses that
    // requested port 0 parse this to find the real port.
    println!("LISTENING {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match handle.join() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("memlat-server: runtime error: {e}");
            ExitCode::FAILURE
        }
    }
}
