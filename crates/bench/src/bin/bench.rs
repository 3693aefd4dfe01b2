//! The repo's perf-trajectory harness: runs the full cluster simulation
//! at three utilization points, a sampling-kernel block-size sweep at
//! ρ = 0.85, a server-count scaling sweep (M ∈ {8, 100, 1000, 10000} at
//! ρ = 0.70, holding `M × duration` roughly constant), and a live
//! `memlat-server` loopback scenario (closed-loop pipelined gets
//! against an in-process server), measures keys/second, wall time and
//! peak RSS, and writes `results/BENCH_cluster.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p memlat-bench --bin bench              # measure
//! cargo run --release -p memlat-bench --bin bench -- \
//!     --check results/BENCH_cluster.json                       # gate
//! cargo run --release -p memlat-bench --bin bench -- \
//!     --digest <threads> <servers>           # determinism fingerprint
//! cargo run --release -p memlat-bench --bin bench -- \
//!     --lru-ring <duration> <reps>       # routed cache-backed peak RSS
//! MEMLAT_QUICK=1 ...                                           # short profile
//! ```
//!
//! `--one <rho> <retention> <duration> <reps> [block] [servers]` runs
//! one measured scenario in this process and prints `keys= best_wall=
//! rss=`. `--lru-ring <duration> <reps>` prints the same line for the
//! routed cache-backed config (`memlat_bench::lru_ring_config`), whose
//! peak RSS CI gates; `measure` does not run it.
//!
//! `--digest` runs one fixed scaled-cluster config at the given thread
//! count and prints a FNV-1a fingerprint of the full streaming output;
//! CI byte-diffs the 1-thread and 4-thread digests to prove the
//! sharded event merge is execution-order independent, and diffs each
//! against the committed `crates/bench/expected_digest.txt`.
//!
//! Each scenario runs in a **fresh child process** (the binary re-execs
//! itself with `--one`), so the reported peak RSS (`VmHWM`, which only
//! ever grows within a process) isolates that scenario's memory
//! footprint — the evidence that `Retention::Summary` peak memory does
//! not scale with total key count.
//!
//! `--check <baseline>` re-measures and fails (exit 1) when any
//! scenario's keys/sec ratio against the committed baseline falls more
//! than 25% below the run's **median** ratio (machine-state drift is
//! shared across scenarios and cancels in the relative comparison),
//! when throughput uniformly halves after spin-calibration
//! normalization, or when the in-run block-1024 vs scalar speedup drops
//! below its floor — so CI catches perf regressions without pinning
//! absolute numbers to one machine.

use std::time::Instant;

use memlat_bench::{
    calibrate_spin_rate, cluster_config, cluster_config_m, determinism_digest, lru_ring_config,
    peak_rss_bytes, read_baseline, write_json, BenchReport, Scenario, SCALE_SERVERS, UTILIZATIONS,
};
use memlat_cluster::{ClusterSim, Retention, SimConfig, SimScratch};

/// Regression tolerance for `--check`, applied to each scenario's
/// keys/sec ratio vs baseline *relative to the run's median ratio* —
/// shared machine-state drift cancels in the relative comparison, so
/// this catches a scenario regressing against the fleet.
const MAX_REGRESSION: f64 = 0.25;

/// Wider tolerance for the live-server loopback scenario: its
/// throughput is syscall- and scheduler-bound rather than ALU/memory
/// bound like the simulator scenarios, so its ratio tracks the
/// cluster-scenario median more loosely across machines.
const SERVER_MAX_REGRESSION: f64 = 0.45;

/// Absolute backstop: even a regression uniform across every scenario
/// (which the median-relative check cancels out) must not halve the
/// calibration-normalized throughput.
const MAX_UNIFORM_REGRESSION: f64 = 0.5;

/// In-run floor for the block-kernel speedup: the block-1024 scenario
/// and the scalar block-1 scenario run seconds apart under the same
/// machine state, so their ratio is jitter-robust. Measured speedup is
/// ~1.2–1.5×; below 1.08 the batched pipeline has lost its advantage.
const BLOCK_SPEEDUP_MIN: f64 = 1.08;

/// Block sizes swept at the ρ = 0.85 point (1 = the scalar loop, then
/// the kernel staging sizes bracketing the tuned default).
const BLOCKS: &[usize] = &[1, 256, 1024, 4096];

fn quick() -> bool {
    std::env::var("MEMLAT_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Child mode for the live-server scenario: an in-process
/// `memlat-server` (no service-time injection, so the numbers measure
/// the real parse/dispatch/store path) serves pipelined closed-loop
/// gets over loopback. Running server and client in the same child
/// keeps the RSS methodology of the other scenarios: this process's
/// `VmHWM` covers the store. The closed loop runs wall-clock seconds
/// (unlike the simulator scenarios, whose `duration` is simulated
/// time), so the window is clamped short.
fn run_one_server(duration: f64, reps: u32) {
    use memlat_loadgen::driver::{preload, run_closed_loop, ClosedLoopConfig};
    use memlat_loadgen::{RunningServer, ServerSource, ServerSpec};

    let window = (duration / 4.0).clamp(0.5, 1.5);
    let reps = reps.min(3);
    let keyspace = 4096;
    let server = RunningServer::launch(&ServerSource::InProcess, &ServerSpec::default())
        .expect("launch in-process server");
    preload(server.addr(), keyspace, 64).expect("preload keyspace");
    let mut best = (0u64, f64::INFINITY, 0.0f64);
    for rep in 0..reps {
        let cfg = ClosedLoopConfig {
            connections: 2,
            depth: 16,
            duration: window,
            keyspace,
            skew: 0.99,
            seed: memlat_bench::BENCH_SEED ^ u64::from(rep).wrapping_mul(0x9E37_79B9),
        };
        let out = run_closed_loop(server.addr(), &cfg).expect("closed loop");
        let rate = out.requests as f64 / out.elapsed;
        if rate > best.2 {
            best = (out.requests, out.elapsed, rate);
        }
    }
    let report = server.shutdown().expect("server shutdown");
    assert!(report.clean, "server did not shut down cleanly");
    println!(
        "keys={} best_wall={} rss={}",
        best.0,
        best.1,
        peak_rss_bytes()
    );
}

/// Child mode: run one scenario `reps` times, print a machine-readable
/// result line, exit. `block = 0` keeps the config default; `servers =
/// 0` keeps the default 4-server topology, otherwise the config comes
/// from the server-count scaling sweep.
fn run_one(rho: f64, retention: &str, duration: f64, reps: u32, block: usize, servers: usize) {
    let mut cfg = if servers > 0 {
        cluster_config_m(rho, duration, servers)
    } else {
        cluster_config(rho, duration)
    };
    if retention == "streaming" {
        cfg = cfg.retention(Retention::Summary);
    }
    if block > 0 {
        cfg = cfg.block(block);
    }
    run_reps(&cfg, reps);
}

/// Runs `cfg` `reps` times through one scratch and prints `keys=
/// best_wall= rss=`.
fn run_reps(cfg: &SimConfig, reps: u32) {
    let mut scratch = SimScratch::new();
    let mut best_wall = f64::INFINITY;
    let mut keys = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        let out = ClusterSim::run_with(cfg, &mut scratch).expect("bench config is valid");
        let wall = start.elapsed().as_secs_f64();
        keys = out.total_keys();
        best_wall = best_wall.min(wall);
    }
    println!("keys={keys} best_wall={best_wall} rss={}", peak_rss_bytes());
}

/// Parent mode: spawn `--one` children, assemble the report.
fn measure() -> BenchReport {
    // Best-of-N wall time, best-of-R child rounds: single-core CI boxes
    // drift through multi-second slow epochs (±15%), long enough to
    // swallow every rep inside one child. Interleaving rounds across
    // scenarios spreads each scenario's samples over the whole
    // measurement window, so every scenario sees at least one fast
    // epoch and best-of is comparable across scenarios.
    let (duration, reps, rounds) = if quick() { (1.5, 5, 1) } else { (6.0, 10, 3) };
    let exe = std::env::current_exe().expect("own path");
    // Spec: (name, rho, mode, block, servers, duration). `servers = 0`
    // means the default 4-server topology via `cluster_config`.
    let mut specs: Vec<(String, f64, &str, usize, usize, f64)> = Vec::new();
    for &(label, rho) in UTILIZATIONS {
        for mode in ["streaming", "materialized"] {
            specs.push((format!("cluster_{label}_{mode}"), rho, mode, 0, 0, duration));
        }
    }
    // Block-size dimension: the sampling-kernel block at the hottest
    // utilization point, streaming retention (block 1 = scalar loop).
    for &block in BLOCKS {
        specs.push((
            format!("cluster_u85_block{block}"),
            0.85,
            "streaming",
            block,
            0,
            duration,
        ));
    }
    // Server-count scaling dimension: M ∈ {8, 100, 1k, 10k} at ρ = 0.70,
    // streaming retention. Simulated work grows linearly with M, so the
    // durations shrink to hold `M × duration` (≈ total simulated jobs)
    // roughly constant — each point costs about the same wall time and
    // the keys/s column isolates per-server overhead at scale.
    for &(label, servers) in SCALE_SERVERS {
        let d = match (label, quick()) {
            ("m8", false) => 3.0,
            ("m100", false) => 0.5,
            ("m1k", false) => 0.05,
            ("m10k", false) => 0.008,
            ("m8", true) => 0.75,
            ("m100", true) => 0.12,
            ("m1k", true) => 0.012,
            _ => 0.002,
        };
        specs.push((format!("cluster_{label}"), 0.70, "streaming", 0, servers, d));
    }
    // The live-server loopback scenario: real TCP sockets through the
    // memlat-server binary's parse/dispatch/store path (retention tag
    // "server" routes the child to `run_one_server`).
    specs.push(("server_loopback".to_string(), 0.0, "server", 0, 0, duration));
    let mut scenarios: Vec<Scenario> = Vec::new();
    for round in 0..rounds {
        for (i, (name, rho, mode, block, servers, dur)) in specs.iter().enumerate() {
            let out = std::process::Command::new(&exe)
                .args([
                    "--one",
                    &rho.to_string(),
                    mode,
                    &dur.to_string(),
                    &reps.to_string(),
                    &block.to_string(),
                    &servers.to_string(),
                ])
                .output()
                .expect("spawn bench child");
            assert!(
                out.status.success(),
                "bench child failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let text = String::from_utf8_lossy(&out.stdout);
            let get = |key: &str| -> f64 {
                text.split_whitespace()
                    .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
                    .unwrap_or_else(|| panic!("missing {key} in child output: {text}"))
                    .parse()
                    .expect("numeric child field")
            };
            let keys = get("keys") as u64;
            let wall = get("best_wall");
            let rss = get("rss") as u64;
            if round == 0 {
                scenarios.push(Scenario {
                    name: name.clone(),
                    utilization: *rho,
                    retention: (*mode).to_string(),
                    block: *block,
                    servers: *servers,
                    sim_seconds: *dur,
                    keys,
                    wall_seconds: wall,
                    keys_per_sec: keys as f64 / wall,
                    peak_rss_bytes: rss,
                });
            } else {
                let s = &mut scenarios[i];
                if wall < s.wall_seconds {
                    s.wall_seconds = wall;
                    s.keys_per_sec = keys as f64 / wall;
                }
                s.peak_rss_bytes = s.peak_rss_bytes.max(rss);
            }
        }
    }
    BenchReport {
        schema: "memlat-bench-v2".to_string(),
        quick: quick(),
        calibration_spins_per_sec: calibrate_spin_rate(),
        scenarios,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--one") {
        let rho: f64 = args[i + 1].parse().expect("rho");
        let retention = args[i + 2].as_str();
        let duration: f64 = args[i + 3].parse().expect("duration");
        let reps: u32 = args[i + 4].parse().expect("reps");
        let block: usize = args.get(i + 5).map_or(0, |b| b.parse().expect("block"));
        let servers: usize = args.get(i + 6).map_or(0, |s| s.parse().expect("servers"));
        if retention == "server" {
            run_one_server(duration, reps);
        } else {
            run_one(rho, retention, duration, reps, block, servers);
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--lru-ring") {
        let duration: f64 = args[i + 1].parse().expect("duration");
        let reps: u32 = args[i + 2].parse().expect("reps");
        run_reps(&lru_ring_config(duration), reps);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--digest") {
        let threads: usize = args[i + 1].parse().expect("threads");
        let servers: usize = args.get(i + 2).map_or(100, |s| s.parse().expect("servers"));
        println!("{}", determinism_digest(threads, servers, 0));
        return;
    }

    let report = measure();
    println!("{}", report.render());

    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check needs a path").clone());
    if let Some(path) = check_path {
        let baseline = read_baseline(&path);
        let mut failed = false;
        // Raw per-scenario ratios vs baseline. A single-core box drifts
        // through multi-second slow epochs whose amplitude the ALU spin
        // calibration does not track (the simulator is memory-bound), so
        // the primary gate compares each scenario's ratio to the run's
        // median ratio: shared drift cancels, isolated regressions stand
        // out.
        let hw = report.calibration_spins_per_sec / baseline.calibration_spins_per_sec;
        let mut pairs: Vec<(&Scenario, f64)> = Vec::new();
        for s in &report.scenarios {
            match baseline.scenarios.iter().find(|b| b.name == s.name) {
                Some(b) => pairs.push((s, s.keys_per_sec / b.keys_per_sec)),
                None => println!("  [check] {}: no baseline entry, skipping", s.name),
            }
        }
        let mut sorted: Vec<f64> = pairs.iter().map(|&(_, r)| r).collect();
        sorted.sort_by(f64::total_cmp);
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(1.0);
        // Per-scenario diff table: baseline vs current keys/s, the raw
        // ratio, the median-relative ratio the gate actually judges, the
        // calibration-normalized ratio the uniform backstop judges, and
        // the floor each scenario must clear.
        println!(
            "  {:<24} {:>14} {:>14} {:>7} {:>9} {:>8} {:>7}  verdict",
            "scenario", "baseline k/s", "current k/s", "ratio", "relative", "hw-norm", "floor"
        );
        for &(s, ratio) in &pairs {
            let base = baseline
                .scenarios
                .iter()
                .find(|b| b.name == s.name)
                .expect("paired above")
                .keys_per_sec;
            let relative = ratio / median;
            let normalized = ratio / hw;
            let tolerance = if s.retention == "server" {
                SERVER_MAX_REGRESSION
            } else {
                MAX_REGRESSION
            };
            let verdict = if relative < 1.0 - tolerance {
                failed = true;
                "FAIL"
            } else if normalized < 1.0 - MAX_UNIFORM_REGRESSION {
                failed = true;
                "FAIL (uniform backstop)"
            } else {
                "ok"
            };
            println!(
                "  {:<24} {:>14.0} {:>14.0} {:>7.2} {:>9.2} {:>8.2} {:>7.2}  {}",
                s.name,
                base,
                s.keys_per_sec,
                ratio,
                relative,
                normalized,
                1.0 - tolerance,
                verdict
            );
        }
        // The tentpole's in-run invariant: block-1024 vs scalar block-1,
        // measured seconds apart, must keep the batched-pipeline speedup.
        let find = |name: &str| {
            report
                .scenarios
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.keys_per_sec)
        };
        if let (Some(b1024), Some(b1)) = (find("cluster_u85_block1024"), find("cluster_u85_block1"))
        {
            let speedup = b1024 / b1;
            let verdict = if speedup < BLOCK_SPEEDUP_MIN {
                failed = true;
                "FAIL"
            } else {
                "ok"
            };
            println!("  [check] block1024/block1 in-run speedup {speedup:.2} {verdict}");
        }
        if failed {
            eprintln!("bench check FAILED");
            std::process::exit(1);
        }
        println!("bench check passed");
    } else {
        let path = write_json(&report);
        println!("  json: {}", path.display());
    }
}
