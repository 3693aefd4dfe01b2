//! Criterion benchmarks for the memlat workspace.
//!
//! Run with `cargo bench --workspace`. Benches:
//!
//! * `solver` — the GI/M/1 `δ` fixed point across arrival laws (closed
//!   form vs numeric Laplace), the cliff-utilization search, Theorem 1
//!   end-to-end.
//! * `distributions` — sampling and transform throughput.
//! * `simulator` — keys/second through the per-server queue and the full
//!   cluster, plus request assembly.
//! * `cache` — slab/LRU store get/set throughput and eviction pressure.
//! * `stats` — ECDF construction, Welford updates, quantile-sketch pushes
//!   (per key and per slice).
//! * `experiments` — scaled-down regenerations of representative paper
//!   artifacts (Table 3, Fig. 7 point, Table 4 row), the ablation of
//!   product-form vs closed-form estimators, and eq. 23 vs the exact
//!   database estimator.
//!
//! Besides the Criterion suites, the `bench` binary is the repo's perf
//! trajectory: it measures full-cluster keys/sec, wall time and peak RSS
//! at three utilizations plus a server-count scaling sweep
//! (M ∈ {8, 100, 1000, 10000}) and writes `results/BENCH_cluster.json`
//! (schema `memlat-bench-v2`); `--check <baseline>` turns it into a CI
//! regression gate. The helpers below (config, calibration, RSS probe,
//! JSON round-trip) live in the library so both the binary and the
//! Criterion suites share them.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

use memlat_cluster::{
    CacheBackedConfig, CacheRouting, ClusterSim, MissMode, MissRelay, Retention, SimConfig,
};
use memlat_model::ModelParams;

/// The paper's base configuration, shared by benches.
#[must_use]
pub fn base_params() -> ModelParams {
    ModelParams::builder()
        .build()
        .expect("paper defaults are valid")
}

/// The utilization points of the full-cluster benchmark: the paper's
/// operating point sits at ~0.78, so the trio brackets it.
pub const UTILIZATIONS: &[(&str, f64)] = &[("u50", 0.50), ("u70", 0.70), ("u85", 0.85)];

/// Seed for every bench scenario: fixed so keys counts are reproducible.
pub const BENCH_SEED: u64 = 0xbe9c;

/// Builds the full-cluster benchmark config at server utilization `rho`
/// (per-server key rate `rho · μ_S` under balanced load).
///
/// # Panics
///
/// Panics if `rho` is outside the stable region (validated at build).
#[must_use]
pub fn cluster_config(rho: f64, duration: f64) -> SimConfig {
    let params = ModelParams::builder()
        .key_rate_per_server(rho * 80_000.0)
        .build()
        .expect("bench utilization is stable");
    SimConfig::new(params)
        .duration(duration)
        .warmup(0.1)
        .seed(BENCH_SEED)
}

/// The server counts of the scaling dimension: brackets the paper's
/// small testbed (M = 8-ish) up to the 10k-server deployments its
/// model targets.
pub const SCALE_SERVERS: &[(&str, usize)] =
    &[("m8", 8), ("m100", 100), ("m1k", 1_000), ("m10k", 10_000)];

/// Builds the M-server scaling benchmark config at utilization `rho`.
///
/// The simulated duration is per-scenario (total work scales with
/// `M × duration`, so the sweep holds `M × duration` roughly constant);
/// the warm-up scales with the duration — the per-server queue's
/// relaxation time is milliseconds at `μ_S = 80 Kps`, so even the
/// shortest clamp comfortably covers the transient.
///
/// # Panics
///
/// Panics if `rho` is outside the stable region (validated at build).
#[must_use]
pub fn cluster_config_m(rho: f64, duration: f64, servers: usize) -> SimConfig {
    let params = ModelParams::builder()
        .servers(servers)
        .key_rate_per_server(rho * 80_000.0)
        .build()
        .expect("bench utilization is stable");
    SimConfig::new(params)
        .duration(duration)
        .warmup((duration * 0.1).clamp(0.002, 0.1))
        .seed(BENCH_SEED)
}

/// Builds the routed cache-backed config of `bench --lru-ring`:
/// `sim_lru_ring`'s shape, a consistent-hash ring (128 vnodes) over
/// four 8 MiB LRU stores under Zipf(1.4) on 10⁶ keys, with coalesced
/// misses and Summary retention, on one thread. The key and
/// service rates are the emergent-r grid's compressed clock; the warm-up
/// equals the measured `duration`. Its peak RSS is dominated by the
/// routing set-up, which is built before any server runs.
///
/// # Panics
///
/// Never for the constants below.
#[must_use]
pub fn lru_ring_config(duration: f64) -> SimConfig {
    let params = ModelParams::builder()
        .key_rate_per_server(200_000.0)
        .service_rate(800_000.0)
        .db_service_rate(50_000.0)
        .build()
        .expect("valid emergent-r params");
    SimConfig::new(params)
        .duration(duration)
        .warmup(duration)
        .db_shards(64)
        .retention(Retention::Summary)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 8 << 20,
            keyspace: 1_000_000,
            skew: 1.4,
            mean_value_bytes: 1_000.0,
            routing: CacheRouting::ConsistentHash { vnodes: 128 },
        }))
        .miss_relay(MissRelay::Coalesced)
        .seed(BENCH_SEED)
        .threads(1)
}

/// The determinism fingerprint: runs one fixed scaled-cluster config
/// (`ρ = 0.70`, 50 ms, Summary retention) at `threads` worker threads,
/// `servers` servers and sampling block `block` (`0` is the config
/// default, [`SimConfig::block`]), and renders a FNV-1a hash of its
/// streaming output (key count, miss ratio, per-server utilizations and
/// Welford moments) as `digest=<hex> keys=<n>`. Identical lines across
/// thread counts prove the per-worker shards merge deterministically,
/// and across blocks that the block size is invisible; the 100-server
/// line is pinned in `crates/bench/expected_digest.txt`.
///
/// # Panics
///
/// Panics if the config fails to run (it is valid by construction).
#[must_use]
pub fn determinism_digest(threads: usize, servers: usize, block: usize) -> String {
    let cfg = cluster_config_m(0.70, 0.05, servers)
        .retention(Retention::Summary)
        .threads(threads)
        .block(block);
    let out = ClusterSim::run(&cfg).expect("digest config is valid");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut push = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01B3);
        }
    };
    push(out.total_keys());
    push(out.miss_ratio().to_bits());
    for &u in out.utilization() {
        push(u.to_bits());
    }
    for s in out.summaries() {
        let l = &s.latency;
        push(l.count());
        push(l.mean().to_bits());
        push(l.sample_variance().to_bits());
        push(l.min().to_bits());
        push(l.max().to_bits());
    }
    format!("digest={h:016x} keys={}", out.total_keys())
}

/// One measured scenario in the report.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// `cluster_<util>_<retention>`.
    pub name: String,
    /// Target server utilization.
    pub utilization: f64,
    /// `"streaming"` (Summary retention) or `"materialized"` (Full).
    pub retention: String,
    /// Sampling-kernel block size the scenario pinned (`SimConfig::block`);
    /// 0 means the config default (auto-detected, currently 1024).
    pub block: usize,
    /// Simulated server count `M`; 0 means the config default (4).
    pub servers: usize,
    /// Simulated seconds (excluding warm-up).
    pub sim_seconds: f64,
    /// Keys recorded by the run.
    pub keys: u64,
    /// Wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Throughput: `keys / wall_seconds`.
    pub keys_per_sec: f64,
    /// Peak RSS (`VmHWM`) of the process *after* the run, in bytes.
    /// Monotone over the process lifetime, so scenario order matters:
    /// the streaming scenarios run first.
    pub peak_rss_bytes: u64,
}

/// The full `BENCH_cluster.json` payload.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Schema tag, `memlat-bench-v2` (v2 added the `servers` scaling
    /// dimension).
    pub schema: String,
    /// Whether the quick profile was active.
    pub quick: bool,
    /// Hardware calibration: iterations/sec of a fixed spin loop, used
    /// to normalize keys/sec across machines in `--check`.
    pub calibration_spins_per_sec: f64,
    /// Measured scenarios.
    pub scenarios: Vec<Scenario>,
}

impl BenchReport {
    /// Renders the human-readable table printed by the `bench` binary.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== cluster bench ({} profile, calibration {:.3e} spins/s) ==",
            if self.quick { "quick" } else { "full" },
            self.calibration_spins_per_sec
        );
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>6} {:>6} {:>10} {:>10} {:>12} {:>10}",
            "scenario", "rho", "M", "block", "keys", "wall_s", "keys/s", "rss_mb"
        );
        for s in &self.scenarios {
            let block = if s.block == 0 {
                "auto".to_string()
            } else {
                s.block.to_string()
            };
            let servers = if s.servers == 0 {
                "4".to_string()
            } else {
                s.servers.to_string()
            };
            let _ = writeln!(
                out,
                "{:<28} {:>6.2} {:>6} {:>6} {:>10} {:>10.3} {:>12.0} {:>10.1}",
                s.name,
                s.utilization,
                servers,
                block,
                s.keys,
                s.wall_seconds,
                s.keys_per_sec,
                s.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            );
        }
        out
    }

    /// Serializes the report as pretty JSON (schema `memlat-bench-v2`).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{}\",", self.schema);
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(
            out,
            "  \"calibration_spins_per_sec\": {},",
            self.calibration_spins_per_sec
        );
        let _ = writeln!(out, "  \"scenarios\": [");
        for (i, s) in self.scenarios.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", s.name);
            let _ = writeln!(out, "      \"utilization\": {},", s.utilization);
            let _ = writeln!(out, "      \"retention\": \"{}\",", s.retention);
            let _ = writeln!(out, "      \"block\": {},", s.block);
            let _ = writeln!(out, "      \"servers\": {},", s.servers);
            let _ = writeln!(out, "      \"sim_seconds\": {},", s.sim_seconds);
            let _ = writeln!(out, "      \"keys\": {},", s.keys);
            let _ = writeln!(out, "      \"wall_seconds\": {},", s.wall_seconds);
            let _ = writeln!(out, "      \"keys_per_sec\": {},", s.keys_per_sec);
            let _ = writeln!(out, "      \"peak_rss_bytes\": {}", s.peak_rss_bytes);
            let _ = writeln!(
                out,
                "    }}{}",
                if i + 1 < self.scenarios.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses the pretty JSON written by [`Self::to_json`].
    ///
    /// This is a purpose-built reader for the repo's own artifact (one
    /// `"key": value` pair per line), not a general JSON parser.
    ///
    /// # Panics
    ///
    /// Panics when the text does not carry the `memlat-bench-v2` schema
    /// or a field fails to parse.
    #[must_use]
    pub fn from_json(text: &str) -> Self {
        fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            let rest = line.trim().strip_prefix("\"")?.strip_prefix(key)?;
            let rest = rest.strip_prefix("\":")?;
            Some(rest.trim().trim_end_matches(',').trim_matches('"'))
        }
        let mut schema = String::new();
        let mut quick = false;
        let mut calibration = 0.0;
        let mut scenarios: Vec<Scenario> = Vec::new();
        let mut cur: Option<Scenario> = None;
        for line in text.lines() {
            if let Some(v) = field(line, "schema") {
                schema = v.to_string();
            } else if let Some(v) = field(line, "quick") {
                quick = v == "true";
            } else if let Some(v) = field(line, "calibration_spins_per_sec") {
                calibration = v.parse().expect("calibration");
            } else if let Some(v) = field(line, "name") {
                cur = Some(Scenario {
                    name: v.to_string(),
                    utilization: 0.0,
                    retention: String::new(),
                    block: 0,
                    servers: 0,
                    sim_seconds: 0.0,
                    keys: 0,
                    wall_seconds: 0.0,
                    keys_per_sec: 0.0,
                    peak_rss_bytes: 0,
                });
            } else if let Some(s) = cur.as_mut() {
                if let Some(v) = field(line, "utilization") {
                    s.utilization = v.parse().expect("utilization");
                } else if let Some(v) = field(line, "retention") {
                    s.retention = v.to_string();
                } else if let Some(v) = field(line, "block") {
                    s.block = v.parse().expect("block");
                } else if let Some(v) = field(line, "servers") {
                    s.servers = v.parse().expect("servers");
                } else if let Some(v) = field(line, "sim_seconds") {
                    s.sim_seconds = v.parse().expect("sim_seconds");
                } else if let Some(v) = field(line, "keys") {
                    s.keys = v.parse().expect("keys");
                } else if let Some(v) = field(line, "wall_seconds") {
                    s.wall_seconds = v.parse().expect("wall_seconds");
                } else if let Some(v) = field(line, "keys_per_sec") {
                    s.keys_per_sec = v.parse().expect("keys_per_sec");
                } else if let Some(v) = field(line, "peak_rss_bytes") {
                    s.peak_rss_bytes = v.parse().expect("peak_rss_bytes");
                    scenarios.push(cur.take().expect("open scenario"));
                }
            }
        }
        assert_eq!(schema, "memlat-bench-v2", "unknown bench schema");
        Self {
            schema,
            quick,
            calibration_spins_per_sec: calibration,
            scenarios,
        }
    }
}

/// Times a fixed integer spin loop and returns iterations/second — a
/// crude single-core speed probe that lets `--check` compare keys/sec
/// across machines in relative units.
#[must_use]
pub fn calibrate_spin_rate() -> f64 {
    const SPINS: u64 = 40_000_000;
    // Best of three: scenario throughput is best-of-N wall time, so the
    // normalizer must also be the machine's unthrottled speed — a single
    // sample landing in a slow scheduling patch would skew every
    // normalized ratio by the full jitter amplitude.
    let mut best = 0.0f64;
    for round in 0..3u64 {
        let start = Instant::now();
        let mut acc: u64 = 0x9e37_79b9_7f4a_7c15 ^ round;
        for i in 0..SPINS {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            acc ^= acc >> 29;
        }
        std::hint::black_box(acc);
        best = best.max(SPINS as f64 / start.elapsed().as_secs_f64());
    }
    best
}

/// Peak resident set size (`VmHWM` from `/proc/self/status`) in bytes;
/// 0 when the probe is unavailable (non-Linux).
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// `results/` (workspace-root-relative when run via cargo).
#[must_use]
pub fn results_dir() -> PathBuf {
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map(|p| p.join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

/// Writes `results/BENCH_cluster.json` and returns the path.
///
/// # Panics
///
/// Panics on I/O errors — the bench binary has nothing useful to do
/// without its artifact.
pub fn write_json(report: &BenchReport) -> PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_cluster.json");
    std::fs::write(&path, report.to_json()).expect("write bench json");
    path
}

/// Reads a baseline report from `path`.
///
/// # Panics
///
/// Panics when the file is missing or malformed.
#[must_use]
pub fn read_baseline(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read bench baseline {path}: {e}"));
    BenchReport::from_json(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let report = BenchReport {
            schema: "memlat-bench-v2".to_string(),
            quick: true,
            calibration_spins_per_sec: 1.5e9,
            scenarios: vec![Scenario {
                name: "cluster_u70_streaming".to_string(),
                utilization: 0.7,
                retention: "streaming".to_string(),
                block: 256,
                servers: 100,
                sim_seconds: 0.5,
                keys: 123_456,
                wall_seconds: 0.25,
                keys_per_sec: 493_824.0,
                peak_rss_bytes: 12 << 20,
            }],
        };
        let parsed = BenchReport::from_json(&report.to_json());
        assert_eq!(parsed.schema, report.schema);
        assert_eq!(parsed.quick, report.quick);
        assert_eq!(parsed.scenarios.len(), 1);
        let (a, b) = (&parsed.scenarios[0], &report.scenarios[0]);
        assert_eq!(a.name, b.name);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.retention, b.retention);
        assert_eq!(a.block, b.block);
        assert_eq!(a.servers, b.servers);
        assert_eq!(a.peak_rss_bytes, b.peak_rss_bytes);
        assert!((a.keys_per_sec - b.keys_per_sec).abs() < 1e-9);
        assert!((parsed.calibration_spins_per_sec - 1.5e9).abs() < 1.0);
    }

    #[test]
    fn rss_probe_reports_something_on_linux() {
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0);
        }
    }

    #[test]
    fn cluster_config_hits_target_utilization() {
        let cfg = cluster_config(0.7, 1.0);
        let peak = cfg.params.peak_utilization().unwrap();
        assert!((peak - 0.7).abs() < 1e-12);
    }

    #[test]
    fn scaled_config_sets_servers_and_bounded_warmup() {
        for &(_, m) in SCALE_SERVERS {
            let duration = 24.0 / m as f64;
            let cfg = cluster_config_m(0.7, duration, m);
            assert_eq!(cfg.params.servers(), m);
            let peak = cfg.params.peak_utilization().unwrap();
            assert!((peak - 0.7).abs() < 1e-12);
            assert!(cfg.warmup >= 0.002 && cfg.warmup <= 0.1, "{}", cfg.warmup);
        }
    }
}
