//! `memlat-perfbench`: the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! memlat-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--server-bin <path>] [--git-rev <rev>]
//! ```
//!
//! Workloads: `sim_paper`, `sim_lru_ring`, `sim_m10k` (the simulator,
//! single-threaded) and `server_etc` (the `memlat-server` binary over
//! loopback). With `--trace 0` the run reports the end-to-end metrics;
//! with `--trace 1` it re-drives the workload layer by layer and reports
//! the per-layer metrics. Human-readable lines come first, then the run
//! manifest, and the last stdout line is the result object. The exit
//! code is 1 when a correctness check failed and 2 when the run could
//! not complete. See `README.md` next to this crate.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

mod client;
mod procfs;
mod reference;
mod report;
mod server;
mod sim;
mod stats;
mod trace;

use report::{Manifest, Metric, Outcome};
use sim::SimWorkload;
use trace::Tracer;

/// The per-layer metrics every traced run prints, in order, with units:
/// the `per_layer` list of `BENCHMARK.json`. A layer a workload does not
/// run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.arrivals.ns_per_key", "ns"),
    ("distributions.service.ns_per_key", "ns"),
    ("des.lindley.ns_per_key", "ns"),
    ("stats.sink.ns_per_key", "ns"),
    ("cluster.server.ns_per_key", "ns"),
    ("cluster.server.self_ns_per_key", "ns"),
    ("cluster.miss.ns_per_key", "ns"),
    ("workload.routing.ns_per_key", "ns"),
    ("cache.store.get_ns", "ns"),
    ("cache.store.set_ns", "ns"),
    ("cache.store.evictions_per_set", "ratio"),
    ("workload.setup.zipf_build_s", "s"),
    ("workload.setup.ring_build_s", "s"),
    ("cluster.database.ns_per_miss", "ns"),
    ("cluster.database.delayed_hit_frac", "ratio"),
    ("cluster.assembly.ns_per_request", "ns"),
    ("cluster.sim.residual_ns_per_key", "ns"),
    ("cluster.sim.merge_ns_per_key", "ns"),
    ("sim.cpu_frac", "ratio"),
    ("sim.runq_wait_frac", "ratio"),
    ("host.steal_frac", "ratio"),
    ("trace.path_coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The live path's layers, which only `server_etc` runs. Its traced run
/// prints them after [`PER_LAYER`].
const SERVER_LAYERS: &[(&str, &str)] = &[
    ("runtime.floor_us", "us"),
    ("protocol.parse_ns_per_cmd", "ns"),
    ("shard.service_ns_per_key", "ns"),
    ("shard.queue_wait_us", "us"),
    ("shard.jobs_per_get", "ratio"),
    ("server.cpu_us_per_op", "us"),
    ("server.runq_wait_us_per_op", "us"),
    ("loadgen.cpu_us_per_op", "us"),
];

/// Set-up samples per simulator run, each a fresh child process.
const SETUP_CHILDREN: usize = 3;

/// Untimed repetitions before the timed ones, and repetitions timed at
/// least, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Longest wait for a quiet host before the set-up probes.
const QUIET_WAIT: Duration = Duration::from_secs(3);

/// Where traces are written, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
    git_rev: String,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: None,
        git_rev: "unknown".into(),
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            a.setup_probe = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed {val:?}: {e}"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|e| format!("--seconds {val:?}: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {val:?}")),
                }
            }
            "--server-bin" => a.server_bin = Some(PathBuf::from(val)),
            "--git-rev" => a.git_rev = val,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn manifest(a: &Args, threads: usize, params: Vec<(String, String)>) -> Manifest {
    let no_simd = std::env::var("MEMLAT_NO_SIMD").unwrap_or_default();
    let kernel = if memlat_dist::simd::simd_active() {
        "avx2"
    } else {
        "scalar"
    };
    Manifest {
        workload: a.workload.clone(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        nproc: procfs::nproc(),
        simd: format!("{kernel} (MEMLAT_NO_SIMD={no_simd:?})"),
        threads,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .into(),
        git_rev: a.git_rev.clone(),
        params,
    }
}

/// Fills in every per-layer metric of [`PER_LAYER`] and `extra`, 0
/// where the workload has none.
fn per_layer(measured: &[Metric], extra: &[(&str, &str)]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .chain(extra)
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit))
        })
        .collect()
}

fn write_trace(a: &Args, m: &Manifest, tracer: &Tracer) -> Result<PathBuf, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = PathBuf::from(OUT_DIR).join(format!("{}-seed{}.trace.jsonl", a.workload, a.seed));
    let body = format!("{}\n{}", m.to_json(), tracer.to_jsonl());
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// What a set-up probe child reports.
struct ChildProbe {
    setup_s: f64,
    ref_s: f64,
    digest: u64,
    latency_us: [f64; 4],
}

/// Child mode: one cold repetition in this fresh process, timed; then
/// the reference kernel, timed on its second run; then the exact
/// simulated latencies (after the timing, so they cost the measured
/// process nothing).
fn setup_probe(w: SimWorkload, seed: u64) -> Result<(), String> {
    let cfg = w.config(seed, 1.0);
    let r = sim::rep(w, &cfg, &mut memlat_cluster::SimScratch::new())?;
    let setup_s = r.total_s();
    drop(r);
    let mut reference = reference::Reference::default();
    reference.time();
    let ref_s = reference.time();
    let (digest, q) = sim::simulated_latency_us(&cfg)?;
    println!(
        "probe {setup_s} {ref_s} {digest} {} {} {} {}",
        q[0], q[1], q[2], q[3]
    );
    Ok(())
}

fn parse_probe(text: &str) -> Option<ChildProbe> {
    let line = text.lines().find_map(|l| l.strip_prefix("probe "))?;
    let f: Vec<&str> = line.split_whitespace().collect();
    let num = |i: usize| f.get(i)?.parse::<f64>().ok();
    Some(ChildProbe {
        setup_s: num(0)?,
        ref_s: num(1)?,
        digest: f.get(2)?.parse().ok()?,
        latency_us: [num(3)?, num(4)?, num(5)?, num(6)?],
    })
}

fn probe_children(a: &Args) -> Result<Vec<ChildProbe>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", &a.workload])
                .args(["--seed", &a.seed.to_string()])
                .output()
                .map_err(|e| format!("setup probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!(
                    "setup probe failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            parse_probe(&text).ok_or_else(|| format!("setup probe printed {text:?}"))
        })
        .collect()
}

/// Repetition `i` after the cold one, its digest checked against the
/// cold one's. `None` after a simulator error; a failed check or an
/// error is recorded in `failures`.
fn checked_rep(
    w: SimWorkload,
    cfg: &memlat_cluster::SimConfig,
    scratch: &mut memlat_cluster::SimScratch,
    cold_digest: u64,
    i: usize,
    failures: &mut Vec<String>,
) -> Option<sim::Rep> {
    match sim::rep(w, cfg, scratch) {
        Ok(r) => {
            let d = sim::digest(&r.out);
            if d != cold_digest {
                failures.push(format!(
                    "repetition {} digest {d:016x} differs from {cold_digest:016x}",
                    i + 1
                ));
            }
            Some(r)
        }
        Err(e) => {
            failures.push(format!("simulator error: {e}"));
            None
        }
    }
}

fn run_sim(a: &Args, w: SimWorkload) -> Result<Outcome, String> {
    let cfg = w.config(a.seed, 1.0);
    let m = manifest(a, cfg.effective_threads(), w.manifest_params(&cfg));
    debug_assert_eq!(m.workload, w.name());
    if a.trace {
        let mut tracer = Tracer::new();
        let (metrics, notes, rounds) = sim::traced(w, &cfg, a.seconds, &mut tracer)?;
        for n in &notes {
            println!("{n}");
        }
        let path = write_trace(a, &m, &tracer)?;
        println!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
        print_manifest(&m);
        // A failed re-drive check returns `Err` above, so every
        // repetition here (the cold one, then an untraced and a traced
        // one per round) succeeded.
        return Ok(Outcome {
            correct: true,
            attempted: 1 + 2 * u64::from(rounds),
            failed: 0,
            metrics: per_layer(&metrics, &[]),
        });
    }

    let wait = procfs::wait_for_quiet(QUIET_WAIT).map_err(|e| e.to_string())?;
    let probes = probe_children(a)?;
    let mut scratch = memlat_cluster::SimScratch::new();
    let cold = sim::rep(w, &cfg, &mut scratch)?;
    let cold_s = cold.total_s();
    // Set-up time at the reference's nominal speed, as for the timed
    // repetitions: each probe's cold repetition over its reference run.
    let setups: Vec<f64> = probes.iter().map(|p| p.setup_s).collect();
    let setup_relative: Vec<f64> = probes.iter().map(|p| p.setup_s / p.ref_s).collect();
    let cold_digest = sim::digest(&cold.out);
    drop(cold);
    let (mut rep_s, mut failures) = (Vec::new(), Vec::new());
    let latency_us = probes[0].latency_us;
    for (i, p) in probes.iter().enumerate() {
        if p.digest != cold_digest || p.latency_us != latency_us {
            failures.push(format!(
                "probe process {i}: digest {:016x}, latencies {:?} us; this process: \
                 digest {cold_digest:016x}, latencies {latency_us:?} us",
                p.digest, p.latency_us
            ));
        }
    }
    // The cold repetition is the first operation attempted.
    let mut attempted = 1u64;
    // A fixed number of untimed repetitions, then the peak RSS: the
    // allocator's footprint creeps up over repetitions, and the
    // reference kernel's column would add to it.
    let mut last = None;
    for i in 0..MIN_REPS {
        attempted += 1;
        last = checked_rep(w, &cfg, &mut scratch, cold_digest, i, &mut failures);
        if last.is_none() {
            return Err(failures.join("; "));
        }
    }
    let rss = procfs::peak_rss_mb(None).map_err(|e| e.to_string())?;
    // Each repetition's host time over the mean of the reference runs
    // on either side of it.
    let mut relative = Vec::new();
    let mut reference = reference::Reference::default();
    reference.time();
    let mut ref_s = vec![reference.time()];
    let sched0 = procfs::thread_self().map_err(|e| e.to_string())?;
    let ticks0 = procfs::cpu_ticks().map_err(|e| e.to_string())?;
    let start = Instant::now();
    while rep_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < a.seconds {
        attempted += 1;
        let i = MIN_REPS + rep_s.len();
        let Some(r) = checked_rep(w, &cfg, &mut scratch, cold_digest, i, &mut failures) else {
            break;
        };
        let before = ref_s[ref_s.len() - 1];
        ref_s.push(reference.time());
        rep_s.push(r.total_s());
        relative.push(r.total_s() / (0.5 * (before + ref_s[ref_s.len() - 1])));
        last = Some(r);
    }
    let wall = start.elapsed().as_secs_f64();
    let steal = procfs::steal_frac(ticks0, procfs::cpu_ticks().map_err(|e| e.to_string())?);
    let sched = procfs::thread_self()
        .map_err(|e| e.to_string())?
        .since(sched0);
    let Some(last) = last else {
        return Err(failures.join("; "));
    };
    match sim::check_output(w, &cfg, &last.out) {
        Ok(note) => println!("check: {note}"),
        Err(e) => failures.push(e),
    }
    let rep_median = stats::median(&rep_s);
    println!(
        "{} repetitions of {} keys in {wall:.2} s (median {rep_median:.4} s, min {:.4} s, \
         max {:.4} s, last assembly {:.4} s; raw {:.0} keys/s); reference median {:.4} s \
         (nominal {} s), relative time median {:.4}; digest {cold_digest:016x}; \
         set-ups {setups:?} s (reference {:?} s; in-process cold repetition {cold_s:.4} s); cpu {:.1}%, run-queue wait {:.2}%, hypervisor steal {:.1}% \
         of machine CPU; quiet-host wait (s, last steal probe) {wait:.2?}",
        rep_s.len(),
        last.out.total_keys(),
        rep_s.iter().copied().fold(f64::INFINITY, f64::min),
        rep_s.iter().copied().fold(0.0, f64::max),
        last.assembly_s,
        last.out.total_keys() as f64 / rep_median,
        stats::median(&ref_s),
        reference::NOMINAL_S,
        stats::median(&relative),
        probes.iter().map(|p| p.ref_s).collect::<Vec<_>>(),
        100.0 * sched.cpu_ns as f64 * 1e-9 / wall,
        100.0 * sched.wait_ns as f64 * 1e-9 / wall,
        100.0 * steal,
    );
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    print_manifest(&m);
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed: failures.len() as u64,
        metrics: sim::end_to_end(
            &relative,
            &last.out,
            stats::median(&setup_relative) * reference::NOMINAL_S,
            rss,
            latency_us,
        ),
    })
}

fn server_bin(a: &Args) -> PathBuf {
    a.server_bin.clone().unwrap_or_else(|| {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        PathBuf::from(target).join("release").join("memlat-server")
    })
}

fn run_server(a: &Args) -> Result<Outcome, String> {
    // Each connection keeps two threads busy (the client's and the
    // server's handler), so half the CPUs keeps the run queue empty and
    // the tail measures the server, not the scheduler.
    let connections = (procfs::nproc() / 2).clamp(1, 4);
    let w = client::Workload::new(a.seed, server::KEYSPACE, server::SHARDS, connections)?;
    let params = vec![
        ("shards".to_string(), server::SHARDS.to_string()),
        (
            "memory_mb_per_shard".into(),
            server::MEMORY_MB_PER_SHARD.to_string(),
        ),
        ("keyspace".into(), server::KEYSPACE.to_string()),
        ("zipf_skew".into(), client::SKEW.to_string()),
        ("batch_q".into(), client::BATCH_Q.to_string()),
        ("value_cap_bytes".into(), client::VALUE_CAP.to_string()),
        ("connections".into(), connections.to_string()),
        ("setups".into(), server::SETUPS.to_string()),
        (
            "loop".into(),
            "closed, one request outstanding per connection".into(),
        ),
    ];
    let m = manifest(a, connections, params);
    let bin = server_bin(a);
    let mut tracer = Tracer::new();
    let r = if a.trace {
        server::traced(&bin, &w, a.seconds, &mut tracer)?
    } else {
        server::untraced(&bin, &w, a.seconds)?
    };
    for n in &r.notes {
        println!("{n}");
    }
    for f in &r.failures {
        eprintln!("FAILED: {f}");
    }
    if a.trace {
        let path = write_trace(a, &m, &tracer)?;
        println!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
    }
    print_manifest(&m);
    Ok(Outcome {
        correct: r.failures.is_empty(),
        attempted: r.attempted,
        // A failed check counts at least one failed operation.
        failed: r.failed.max(u64::from(!r.failures.is_empty())),
        metrics: if a.trace {
            per_layer(&r.metrics, SERVER_LAYERS)
        } else {
            r.metrics
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("memlat-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (
        SimWorkload::from_name(&args.workload),
        args.workload.as_str(),
    ) {
        (Some(w), _) if args.setup_probe => setup_probe(w, args.seed).map(|()| None),
        (Some(w), _) => run_sim(&args, w).map(Some),
        (None, "server_etc") => run_server(&args).map(Some),
        (None, other) => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(mut outcome)) => {
            for m in &outcome.metrics {
                println!("{} = {} {}", m.name, m.value, m.unit);
                // A percentile over an empty sample, say, is a failed
                // measurement, not a number.
                if !m.value.is_finite() {
                    eprintln!("FAILED: {} is {}", m.name, m.value);
                    outcome.correct = false;
                    outcome.failed = outcome.failed.max(1);
                }
            }
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("memlat-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_manifest(m: &Manifest) {
    println!("manifest {}", m.to_json());
}
