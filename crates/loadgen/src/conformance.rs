//! Live-server conformance: drive the real `memlat-server` over loopback
//! and check the measured latency against the paper's model.
//!
//! # Methodology
//!
//! The server injects an Exponential(μ_S) per-key service time into every
//! `get`, stretching the service timescale to ~1.25 ms so that loopback
//! transport and scheduler noise (tens of µs) become a small additive
//! floor rather than the signal. One open-loop stream per shard then
//! reproduces the GI^X/M/1 input process of the model — Generalized-
//! Pareto batch gaps, geometric batch sizes, Zipf keys conditioned onto
//! the stream's shard — so each multiget is exactly one job in one shard
//! queue and its round-trip time is that job's *batch sojourn* plus the
//! loopback floor `T̂_N` (calibrated from sequential `set` round-trips,
//! which bypass the injection).
//!
//! The model is evaluated at the **measured** operating point, not the
//! nominal one: the arrival rate `λ̂` comes from the client's send
//! counters, the service rate `μ̂` from the server's `busy_ns` /
//! `keys_served` deltas, and the load split from the per-shard key
//! counters. Checks per utilization point:
//!
//! 1. **Theorem 1 band** — requests of fan-out `N` are assembled from
//!    the measured per-shard sojourn populations (multinomial split,
//!    max over draws — per-key latency collapses onto the batch
//!    completion law for geometric batches, a property PR 5 validated
//!    in the simulator); the replication-mean must land in the PR 5
//!    sharpened band `[min(eq12, eq14) · lo, max(eq12, eq14, H_N/δ) ·
//!    hi]` widened by a declared loopback margin.
//! 2. **Batch mean** — mean batch sojourn vs the decay-law mean `1/δ`.
//! 3. **Tails** — pooled p95/p99 vs `ln(20)/δ` and `ln(100)/δ`.
//! 4. **Little's law** — the server-side time-average of jobs in the
//!    shard systems (`Δqueue_integral / window`) vs the client-side
//!    `λ̂_jobs · (mean RTT − T̂_N)`; this cross-checks two completely
//!    independent instrumentation paths.

use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::time::Instant;

use memlat_dist::Multinomial;
use memlat_model::{ModelError, ModelParams, ServerLatencyModel};
use memlat_numerics::special::harmonic;
use memlat_stats::{ConfidenceInterval, QuantileSketch, StreamingStats};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::driver::{measure_network_floor, preload, run_streams, StreamSpec};
use crate::spawn::{RunningServer, ServerSource, ServerSpec};

/// Declared extra relative margin for live-system effects the model
/// does not describe: connection-driver queueing and reassembly, the
/// sleep-based pacer's granularity, scheduler noise on a shared box.
pub const LOOPBACK_MARGIN: f64 = 0.20;

/// Relative tolerance on the p95/p99 decay-law quantiles (tails are
/// noisier than means at these run lengths).
pub const TAIL_MARGIN: f64 = 0.35;

/// Relative tolerance on the Little's-law cross-check.
pub const LITTLE_MARGIN: f64 = 0.30;

/// Student-t confidence level for replication CIs.
pub const CONF_LEVEL: f64 = 0.95;

/// A measurement profile: how hard and how long to drive the server.
#[derive(Debug, Clone)]
pub struct Profile {
    /// True for the cheap CI profile.
    pub quick: bool,
    /// Server shard count `M`.
    pub shards: usize,
    /// Mean injected per-key service time (seconds); `μ_S` is its
    /// reciprocal.
    pub service_exp_mean: f64,
    /// Target per-shard utilizations to measure at.
    pub rho_points: Vec<f64>,
    /// Replications per utilization point.
    pub replications: usize,
    /// Send window per replication (seconds).
    pub duration: f64,
    /// Zipf keyspace size (fully preloaded).
    pub keyspace: u64,
    /// Payload bytes per key.
    pub value_len: usize,
    /// Request fan-out `N` for the Theorem-1 assembly.
    pub fanout_n: u64,
    /// Geometric batch parameter `q`.
    pub q: f64,
    /// Generalized-Pareto burst degree `ξ`.
    pub xi: f64,
    /// Zipf skew.
    pub skew: f64,
    /// Sequential `set` probes for the loopback floor.
    pub floor_probes: usize,
    /// Assembled-request draws per replication.
    pub assembly_draws: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Profile {
    /// Cheap profile: 2 utilization points, short windows. Runs in
    /// roughly half a minute; what CI and `MEMLAT_QUICK=1` use.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            quick: true,
            shards: 2,
            service_exp_mean: 1.25e-3,
            rho_points: vec![0.55, 0.75],
            replications: 3,
            duration: 2.5,
            keyspace: 4096,
            value_len: 64,
            fanout_n: 150,
            q: 0.1,
            xi: 0.15,
            skew: 0.99,
            floor_probes: 200,
            assembly_draws: 400,
            seed: 0x10AD_6E4E,
        }
    }

    /// Full profile: 4 utilization points, longer windows — what the
    /// committed `results/server_conformance.json` is generated with.
    #[must_use]
    pub fn full() -> Self {
        Self {
            quick: false,
            rho_points: vec![0.35, 0.55, 0.70, 0.80],
            replications: 4,
            duration: 6.0,
            keyspace: 16384,
            ..Self::quick()
        }
    }

    /// Tiny profile for the CI smoke job and unit tests: one point,
    /// sub-second windows. Model checks are reported but not gated.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            rho_points: vec![0.60],
            replications: 2,
            duration: 0.8,
            keyspace: 1024,
            floor_probes: 60,
            assembly_draws: 120,
            ..Self::quick()
        }
    }

    /// [`Profile::quick`] under `MEMLAT_QUICK=1`, else [`Profile::full`].
    #[must_use]
    pub fn from_env() -> Self {
        if memlat_experiments::quick_mode() {
            Self::quick()
        } else {
            Self::full()
        }
    }

    fn mu_nominal(&self) -> f64 {
        1.0 / self.service_exp_mean
    }
}

/// One model-vs-measurement check at one utilization point.
#[derive(Debug, Clone)]
pub struct LiveCheck {
    /// `"assembled_ts"`, `"batch_mean"`, `"batch_p95"`, `"batch_p99"`
    /// or `"little"`.
    pub component: &'static str,
    /// Measured value (seconds, or jobs for `little`).
    pub measured: f64,
    /// Lower endpoint of the replication CI (= `measured` when the
    /// check has no replication CI).
    pub ci_lower: f64,
    /// Upper endpoint of the replication CI.
    pub ci_upper: f64,
    /// Lower acceptance bound.
    pub bound_lower: f64,
    /// Upper acceptance bound.
    pub bound_upper: f64,
    /// Model point estimate.
    pub estimate: f64,
    /// `|measured − estimate| / estimate`.
    pub rel_err: f64,
    /// Effective relative tolerance.
    pub rel_tol: f64,
    /// Whether `measured` lies within the acceptance bounds (± CI
    /// half-width).
    pub in_bounds: bool,
    /// Whether `rel_err ≤ rel_tol`.
    pub within_tol: bool,
}

impl LiveCheck {
    /// True when both the band and the tolerance check hold.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.in_bounds && self.within_tol
    }
}

fn live_check(
    component: &'static str,
    ci: &ConfidenceInterval,
    bound_lower: f64,
    bound_upper: f64,
    estimate: f64,
    margin: f64,
    bias: f64,
) -> LiveCheck {
    let slack = ci.half_width();
    let rel_err = (ci.mean - estimate).abs() / estimate;
    let rel_tol = bias + margin + slack / estimate;
    LiveCheck {
        component,
        measured: ci.mean,
        ci_lower: ci.lower,
        ci_upper: ci.upper,
        bound_lower,
        bound_upper,
        estimate,
        rel_err,
        rel_tol,
        in_bounds: ci.mean >= bound_lower - slack && ci.mean <= bound_upper + slack,
        within_tol: rel_err <= rel_tol,
    }
}

/// A point check without replication structure (tails, Little).
fn point_check(component: &'static str, measured: f64, estimate: f64, margin: f64) -> LiveCheck {
    let rel_err = (measured - estimate).abs() / estimate;
    LiveCheck {
        component,
        measured,
        ci_lower: measured,
        ci_upper: measured,
        bound_lower: estimate * (1.0 - margin),
        bound_upper: estimate * (1.0 + margin),
        estimate,
        rel_err,
        rel_tol: margin,
        in_bounds: rel_err <= margin,
        within_tol: rel_err <= margin,
    }
}

/// Measured operating point and diagnostics at one utilization target.
#[derive(Debug, Clone)]
pub struct PointMeasure {
    /// Measured total key arrival rate (keys/s, client counters).
    pub lambda_hat: f64,
    /// Measured per-shard service rate (keys/s, server `busy_ns`).
    pub mu_hat: f64,
    /// Measured per-shard key shares (server counters, sum 1).
    pub shares: Vec<f64>,
    /// Model utilization of the heaviest shard at (λ̂, μ̂).
    pub rho_model: f64,
    /// Server-side busy-fraction `Δbusy / (M · window)`.
    pub rho_busy: f64,
    /// δ fixed point of the heaviest shard's queue.
    pub delta: f64,
    /// Hit ratio observed by the streams.
    pub hit_ratio: f64,
    /// Batches whose send lagged the schedule by over one mean gap.
    pub behind: u64,
    /// Total batches measured.
    pub batches: u64,
}

/// Conformance result at one utilization point.
#[derive(Debug, Clone)]
pub struct PointReport {
    /// Stable identifier, e.g. `"rho055"`.
    pub id: String,
    /// Target per-shard utilization this point was paced for.
    pub rho_target: f64,
    /// Measured operating point.
    pub measure: PointMeasure,
    /// Replications run.
    pub replications: usize,
    /// The five checks.
    pub checks: Vec<LiveCheck>,
}

impl PointReport {
    /// True when every check passes.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.checks.iter().all(LiveCheck::pass)
    }
}

/// Full live-conformance report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether the quick profile produced this report.
    pub quick: bool,
    /// Replications per point.
    pub replications: usize,
    /// Shard count.
    pub shards: usize,
    /// Nominal injected mean service time (seconds).
    pub service_exp_mean: f64,
    /// Calibrated loopback floor `T̂_N` (seconds).
    pub floor: f64,
    /// Per-utilization-point results.
    pub points: Vec<PointReport>,
    /// Connections the server still saw at shutdown beyond the probe
    /// itself (0 = clean drain).
    pub leaked_connections: u64,
    /// Whether shutdown was acknowledged and the server exited cleanly.
    pub clean_shutdown: bool,
}

impl Report {
    /// True when every point passes and the lifecycle was clean.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.points.iter().all(PointReport::pass)
            && self.leaked_connections == 0
            && self.clean_shutdown
    }

    /// Human-readable list of every failure (empty on pass).
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for p in &self.points {
            for c in &p.checks {
                if !c.in_bounds {
                    v.push(format!(
                        "{}/{}: measured {:.4} outside [{:.4}, {:.4}] (estimate {:.4})",
                        p.id, c.component, c.measured, c.bound_lower, c.bound_upper, c.estimate,
                    ));
                }
                if !c.within_tol {
                    v.push(format!(
                        "{}/{}: rel err {:.4} exceeds tolerance {:.4}",
                        p.id, c.component, c.rel_err, c.rel_tol,
                    ));
                }
            }
        }
        if self.leaked_connections > 0 {
            v.push(format!(
                "lifecycle: {} connection(s) still open at shutdown",
                self.leaked_connections
            ));
        }
        if !self.clean_shutdown {
            v.push("lifecycle: server did not shut down cleanly".into());
        }
        v
    }

    /// Serializes the report with fixed key order and shortest-roundtrip
    /// floats — the *schema* (keys, nesting, array shapes) is identical
    /// across runs; only measured numbers differ.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"memlat-server-conformance-v1\",\n");
        let _ = writeln!(s, "  \"quick\": {},", self.quick);
        let _ = writeln!(s, "  \"replications\": {},", self.replications);
        let _ = writeln!(s, "  \"shards\": {},", self.shards);
        let _ = writeln!(
            s,
            "  \"service_exp_mean\": {},",
            json_f64(self.service_exp_mean)
        );
        let _ = writeln!(s, "  \"floor\": {},", json_f64(self.floor));
        let _ = writeln!(s, "  \"leaked_connections\": {},", self.leaked_connections);
        let _ = writeln!(s, "  \"clean_shutdown\": {},", self.clean_shutdown);
        let _ = writeln!(s, "  \"pass\": {},", self.pass());
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"id\": \"{}\",", p.id);
            let _ = writeln!(s, "      \"rho_target\": {},", json_f64(p.rho_target));
            let _ = writeln!(s, "      \"replications\": {},", p.replications);
            let m = &p.measure;
            let _ = writeln!(s, "      \"lambda_hat\": {},", json_f64(m.lambda_hat));
            let _ = writeln!(s, "      \"mu_hat\": {},", json_f64(m.mu_hat));
            let shares = m
                .shares
                .iter()
                .map(|&x| json_f64(x))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(s, "      \"shares\": [{shares}],");
            let _ = writeln!(s, "      \"rho_model\": {},", json_f64(m.rho_model));
            let _ = writeln!(s, "      \"rho_busy\": {},", json_f64(m.rho_busy));
            let _ = writeln!(s, "      \"delta\": {},", json_f64(m.delta));
            let _ = writeln!(s, "      \"hit_ratio\": {},", json_f64(m.hit_ratio));
            let _ = writeln!(s, "      \"behind\": {},", m.behind);
            let _ = writeln!(s, "      \"batches\": {},", m.batches);
            let _ = writeln!(s, "      \"pass\": {},", p.pass());
            s.push_str("      \"checks\": [\n");
            for (j, c) in p.checks.iter().enumerate() {
                let _ = write!(
                    s,
                    "        {{\"component\": \"{}\", \"measured\": {}, \"ci_lower\": {}, \
                     \"ci_upper\": {}, \"bound_lower\": {}, \"bound_upper\": {}, \
                     \"estimate\": {}, \"rel_err\": {}, \"rel_tol\": {}, \
                     \"in_bounds\": {}, \"within_tol\": {}}}",
                    c.component,
                    json_f64(c.measured),
                    json_f64(c.ci_lower),
                    json_f64(c.ci_upper),
                    json_f64(c.bound_lower),
                    json_f64(c.bound_upper),
                    json_f64(c.estimate),
                    json_f64(c.rel_err),
                    json_f64(c.rel_tol),
                    c.in_bounds,
                    c.within_tol,
                );
                s.push_str(if j + 1 < p.checks.len() { ",\n" } else { "\n" });
            }
            s.push_str("      ]\n");
            s.push_str(if i + 1 < self.points.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// JSON-safe float formatting (non-finite → `null`).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Harness errors.
#[derive(Debug)]
pub enum HarnessError {
    /// Socket / process error.
    Io(io::Error),
    /// Model evaluation rejected the measured operating point.
    Model(ModelError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Io(e) => write!(f, "io: {e}"),
            HarnessError::Model(e) => write!(f, "model: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<io::Error> for HarnessError {
    fn from(e: io::Error) -> Self {
        HarnessError::Io(e)
    }
}

impl From<ModelError> for HarnessError {
    fn from(e: ModelError) -> Self {
        HarnessError::Model(e)
    }
}

fn snapshot(addr: SocketAddr, shards: usize) -> io::Result<Vec<(u64, u64, u64, u64)>> {
    let stats = crate::client::Connection::connect(addr)?.stats()?;
    let field = |name: &str| stats.get(name).copied().unwrap_or_default();
    Ok((0..shards)
        .map(|j| {
            (
                field(&format!("shard{j}_keys_served")),
                field(&format!("shard{j}_busy_ns")),
                field(&format!("shard{j}_jobs")),
                field(&format!("shard{j}_queue_integral_ns")),
            )
        })
        .collect())
}

/// One replication's raw measurements.
struct RepMeasure {
    lambda_hat: f64,
    mu_hat: f64,
    shares: Vec<f64>,
    rho_busy: f64,
    shard_sojourns: Vec<Vec<f64>>,
    batch_mean: f64,
    n_server: f64,
    n_client: f64,
    hits: u64,
    misses: u64,
    behind: u64,
    batches: u64,
    sketch: QuantileSketch,
}

fn run_replication(
    addr: SocketAddr,
    profile: &Profile,
    rho: f64,
    rep: usize,
    floor: f64,
    mu_pace: f64,
    duration: f64,
) -> io::Result<RepMeasure> {
    let before = snapshot(addr, profile.shards)?;
    let window_start = Instant::now();
    let specs: Vec<StreamSpec> = (0..profile.shards)
        .map(|j| StreamSpec {
            shard: j,
            shards: profile.shards,
            key_rate: rho * mu_pace,
            q: profile.q,
            xi: profile.xi,
            keyspace: profile.keyspace,
            skew: profile.skew,
            duration,
            seed: profile.seed
                ^ (rep as u64).wrapping_add(1).wrapping_mul(0x9E37_79B9)
                ^ (j as u64 + 1).wrapping_mul(0x517C_C1B7)
                ^ ((rho * 1000.0) as u64),
        })
        .collect();
    let streams = run_streams(addr, &specs)?;
    let window = window_start.elapsed().as_secs_f64();
    let after = snapshot(addr, profile.shards)?;

    let mut d_keys = Vec::new();
    let mut d_busy = 0u64;
    let mut d_jobs = 0u64;
    let mut d_integral = 0u64;
    for (b, a) in before.iter().zip(&after) {
        d_keys.push(a.0.saturating_sub(b.0));
        d_busy += a.1.saturating_sub(b.1);
        d_jobs += a.2.saturating_sub(b.2);
        d_integral += a.3.saturating_sub(b.3);
    }
    let total_keys: u64 = d_keys.iter().sum();
    let shares = normalized_shares(&d_keys);

    let keys_sent: u64 = streams.iter().map(|s| s.keys_sent).sum();
    let batches: u64 = streams.iter().map(|s| s.batches_sent).sum();
    let hits: u64 = streams.iter().map(|s| s.hits).sum();
    let misses: u64 = streams.iter().map(|s| s.misses).sum();
    let behind: u64 = streams.iter().map(|s| s.behind).sum();

    let lambda_hat = keys_sent as f64 / duration;
    let busy_s = d_busy as f64 / 1e9;
    let mu_hat = if busy_s > 0.0 {
        total_keys as f64 / busy_s
    } else {
        profile.mu_nominal()
    };
    let rho_busy = busy_s / (profile.shards as f64 * window);

    let mut shard_sojourns = Vec::with_capacity(profile.shards);
    let mut batch_stats = StreamingStats::new();
    let mut rtt_stats = StreamingStats::new();
    let mut sketch = QuantileSketch::new();
    for s in &streams {
        let mut pop = Vec::with_capacity(s.rtts.len());
        for &rtt in &s.rtts {
            rtt_stats.push(rtt);
            let sojourn = (rtt - floor).max(1e-7);
            batch_stats.push(sojourn);
            sketch.push(sojourn);
            pop.push(sojourn);
        }
        shard_sojourns.push(pop);
    }

    // Little's law, two independent instrumentation paths: the server's
    // queue-gauge integral vs the client's arrival rate × sojourn.
    let n_server = d_integral as f64 / 1e9 / window;
    let n_client = (d_jobs as f64 / window) * (rtt_stats.mean() - floor).max(0.0);

    Ok(RepMeasure {
        lambda_hat,
        mu_hat,
        shares,
        rho_busy,
        shard_sojourns,
        batch_mean: batch_stats.mean(),
        n_server,
        n_client,
        hits,
        misses,
        behind,
        batches,
        sketch,
    })
}

/// Exact-sum share normalization (the model validates Σp = 1 to 1e-9).
fn normalized_shares(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return vec![1.0 / counts.len() as f64; counts.len().max(1)];
    }
    let mut shares: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
    let head: f64 = shares[..shares.len() - 1].iter().sum();
    if let Some(last) = shares.last_mut() {
        *last = 1.0 - head;
    }
    shares
}

/// Assembles `draws` requests of fan-out `n` from measured per-shard
/// sojourn populations: multinomial key split, request latency = max
/// over all per-key draws (per-key law ≈ batch completion law).
fn assemble_requests(
    n: u64,
    shares: &[f64],
    populations: &[Vec<f64>],
    draws: usize,
    rng: &mut StdRng,
) -> StreamingStats {
    let mut stats = StreamingStats::new();
    let Ok(split) = Multinomial::new(shares) else {
        return stats;
    };
    let mut counts = vec![0u64; shares.len()];
    for _ in 0..draws {
        split.sample_into(n, &mut counts, rng);
        let mut ts = 0f64;
        for (j, &c) in counts.iter().enumerate() {
            let pop = &populations[j];
            if pop.is_empty() {
                continue;
            }
            for _ in 0..c {
                let idx = (rng.next_u64() % pop.len() as u64) as usize;
                ts = ts.max(pop[idx]);
            }
        }
        if ts > 0.0 {
            stats.push(ts);
        }
    }
    stats
}

fn check_rho_point(
    addr: SocketAddr,
    profile: &Profile,
    rho: f64,
    floor: f64,
    mu_pace: f64,
) -> Result<PointReport, HarnessError> {
    // Mixing time grows like 1/(1−ρ): stretch the window at the heavy
    // points so the effective sample count stays roughly constant
    // (mirrors the simulator harness's duration scaling).
    let duration = profile.duration * ((1.0 - 0.55) / (1.0 - rho)).clamp(1.0, 3.0);
    let mut reps = Vec::with_capacity(profile.replications);
    for rep in 0..profile.replications {
        reps.push(run_replication(
            addr, profile, rho, rep, floor, mu_pace, duration,
        )?);
    }

    // Pooled operating point for the model.
    let lambda_hat = mean(reps.iter().map(|r| r.lambda_hat));
    let mu_hat = mean(reps.iter().map(|r| r.mu_hat));
    let rho_busy = mean(reps.iter().map(|r| r.rho_busy));
    let share_sums: Vec<f64> = (0..profile.shards)
        .map(|j| mean(reps.iter().map(|r| r.shares[j])))
        .collect();
    let shares = {
        let total: f64 = share_sums.iter().sum();
        let mut v: Vec<f64> = share_sums.iter().map(|&x| x / total).collect();
        let head: f64 = v[..v.len() - 1].iter().sum();
        let m = v.len();
        v[m - 1] = 1.0 - head;
        v
    };

    let params = ModelParams::builder()
        .keys_per_request(profile.fanout_n)
        .servers(profile.shards)
        .load(memlat_model::LoadDistribution::Custom(shares.clone()))
        .arrival(memlat_model::ArrivalPattern::GeneralizedPareto { xi: profile.xi })
        .total_key_rate(lambda_hat)
        .concurrency(profile.q)
        .service_rate(mu_hat)
        .miss_ratio(0.0)
        .network_latency(floor)
        .build()?;
    let est = params.estimate()?;
    let model = ServerLatencyModel::new(&params)?;
    let queue = model.heaviest_queue();
    let delta = queue.decay_rate();
    let n = profile.fanout_n;

    // PR 5's sharpened Theorem-1 band plus the documented eq-14 bias.
    let ts_exact = harmonic(n) / delta;
    let ts_lo = est.server.lower.min(est.server_closed_form.lower);
    let ts_hi = est
        .server
        .upper
        .max(est.server_closed_form.upper)
        .max(ts_exact);
    let eq14 = est.server_closed_form.upper;
    let ts_bias = (ts_exact / eq14 - 1.0).abs();

    // Assembled T_S(N) per replication, CI across replications.
    let mut assembled = StreamingStats::new();
    let mut rep_rng = StdRng::seed_from_u64(profile.seed ^ 0xA55E_517C);
    for r in &reps {
        let s = assemble_requests(
            n,
            &r.shares,
            &r.shard_sojourns,
            profile.assembly_draws,
            &mut rep_rng,
        );
        if s.count() > 0 {
            assembled.push(s.mean());
        }
    }
    let assembled_ci = ConfidenceInterval::for_mean_t(&assembled, CONF_LEVEL);
    let loopback_slack = LOOPBACK_MARGIN * eq14;

    // Batch-sojourn mean per replication vs the decay law.
    let mut batch_means = StreamingStats::new();
    for r in &reps {
        batch_means.push(r.batch_mean);
    }
    let batch_ci = ConfidenceInterval::for_mean_t(&batch_means, CONF_LEVEL);
    let batch_est = 1.0 / delta;

    // Tail quantiles per replication, CI across replications — in heavy
    // traffic the replication scatter widens the tolerance honestly
    // instead of a fixed margin failing on variance alone.
    let mut p95s = StreamingStats::new();
    let mut p99s = StreamingStats::new();
    for r in &reps {
        if r.sketch.count() > 0 {
            p95s.push(r.sketch.quantile(0.95));
            p99s.push(r.sketch.quantile(0.99));
        }
    }
    let p95_ci = ConfidenceInterval::for_mean_t(&p95s, CONF_LEVEL);
    let p99_ci = ConfidenceInterval::for_mean_t(&p99s, CONF_LEVEL);
    let p95_est = (20f64).ln() / delta;
    let p99_est = (100f64).ln() / delta;

    // Little's law across both instrumentation paths.
    let n_server = mean(reps.iter().map(|r| r.n_server));
    let n_client = mean(reps.iter().map(|r| r.n_client));

    let checks = vec![
        live_check(
            "assembled_ts",
            &assembled_ci,
            ts_lo - loopback_slack,
            ts_hi + loopback_slack,
            eq14,
            LOOPBACK_MARGIN,
            ts_bias,
        ),
        live_check(
            "batch_mean",
            &batch_ci,
            batch_est * (1.0 - LOOPBACK_MARGIN),
            batch_est * (1.0 + LOOPBACK_MARGIN),
            batch_est,
            LOOPBACK_MARGIN,
            0.0,
        ),
        live_check(
            "batch_p95",
            &p95_ci,
            p95_est * (1.0 - TAIL_MARGIN),
            p95_est * (1.0 + TAIL_MARGIN),
            p95_est,
            TAIL_MARGIN,
            0.0,
        ),
        live_check(
            "batch_p99",
            &p99_ci,
            p99_est * (1.0 - TAIL_MARGIN),
            p99_est * (1.0 + TAIL_MARGIN),
            p99_est,
            TAIL_MARGIN,
            0.0,
        ),
        point_check("little", n_server, n_client, LITTLE_MARGIN),
    ];

    let hits: u64 = reps.iter().map(|r| r.hits).sum();
    let misses: u64 = reps.iter().map(|r| r.misses).sum();
    let keys = hits + misses;
    Ok(PointReport {
        id: format!("rho{:03}", (rho * 100.0).round() as u32),
        rho_target: rho,
        measure: PointMeasure {
            lambda_hat,
            mu_hat,
            shares,
            rho_model: queue.utilization(),
            rho_busy,
            delta,
            hit_ratio: if keys > 0 {
                hits as f64 / keys as f64
            } else {
                f64::NAN
            },
            behind: reps.iter().map(|r| r.behind).sum(),
            batches: reps.iter().map(|r| r.batches).sum(),
        },
        replications: profile.replications,
        checks,
    })
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let mut s = StreamingStats::new();
    for x in it {
        s.push(x);
    }
    s.mean()
}

/// Runs the whole harness against a server obtained from `source`:
/// preload, floor calibration, every utilization point, then graceful
/// shutdown with the drain/leak evidence folded into the report.
///
/// # Errors
///
/// Propagates socket, process and model errors.
pub fn run(source: &ServerSource, profile: &Profile) -> Result<Report, HarnessError> {
    let spec = ServerSpec {
        shards: profile.shards,
        service_exp_mean: Some(profile.service_exp_mean),
        ..ServerSpec::default()
    };
    let server = RunningServer::launch(source, &spec)?;
    let addr = server.addr();

    preload(addr, profile.keyspace, profile.value_len)?;
    let floor = measure_network_floor(addr, profile.floor_probes)?;

    // Calibration: the achieved service rate μ̂ runs below the nominal
    // injection rate (parse, store and timer-slack overheads add to every
    // key), so pacing at ρ·μ_nominal would overshoot the target
    // utilization. A short moderate-load run measures μ̂ once; the sweep
    // paces every point against it.
    let cal = run_replication(
        addr,
        profile,
        0.40,
        usize::MAX >> 1,
        floor,
        profile.mu_nominal(),
        profile.duration.clamp(0.5, 2.5),
    )?;
    let mu_pace = cal.mu_hat;
    eprintln!(
        "memlat-loadgen: floor {:.1} µs, calibrated μ̂ {:.0} keys/s/shard \
         (nominal {:.0})",
        floor * 1e6,
        mu_pace,
        profile.mu_nominal(),
    );

    let mut points = Vec::with_capacity(profile.rho_points.len());
    for &rho in &profile.rho_points {
        points.push(check_rho_point(addr, profile, rho, floor, mu_pace)?);
    }

    // Give the server a beat to reap the measurement connections, then
    // count what is still open (the probe connection itself is one).
    std::thread::sleep(std::time::Duration::from_millis(150));
    let shutdown = server.shutdown()?;
    Ok(Report {
        quick: profile.quick,
        replications: profile.replications,
        shards: profile.shards,
        service_exp_mean: profile.service_exp_mean,
        floor,
        points,
        leaked_connections: shutdown.connections_at_shutdown.saturating_sub(1),
        clean_shutdown: shutdown.clean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_normalize_exactly() {
        let s = normalized_shares(&[3, 5, 2]);
        assert_eq!(s.len(), 3);
        let sum: f64 = s.iter().sum();
        assert!((sum - 1.0).abs() < f64::EPSILON);
        assert!((s[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn assembly_max_exceeds_population_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        let pops = vec![vec![1.0, 2.0, 3.0], vec![1.5, 2.5]];
        let stats = assemble_requests(50, &[0.5, 0.5], &pops, 200, &mut rng);
        assert_eq!(stats.count(), 200);
        // Max of 50 draws from {1..3} concentrates near the top.
        assert!(stats.mean() > 2.5, "{}", stats.mean());
    }

    #[test]
    fn report_json_is_schema_stable() {
        let check = point_check("little", 2.0, 2.1, 0.3);
        let report = Report {
            quick: true,
            replications: 2,
            shards: 2,
            service_exp_mean: 1.25e-3,
            floor: 5e-5,
            points: vec![PointReport {
                id: "rho055".into(),
                rho_target: 0.55,
                measure: PointMeasure {
                    lambda_hat: 880.0,
                    mu_hat: 800.0,
                    shares: vec![0.5, 0.5],
                    rho_model: 0.55,
                    rho_busy: 0.54,
                    delta: 300.0,
                    hit_ratio: 1.0,
                    behind: 0,
                    batches: 4000,
                },
                replications: 2,
                checks: vec![check],
            }],
            leaked_connections: 0,
            clean_shutdown: true,
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"memlat-server-conformance-v1\""));
        assert!(json.contains("\"component\": \"little\""));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON:\n{json}");
        // Byte-identical when serialized twice.
        assert_eq!(json, report.to_json());
    }

    #[test]
    fn profiles_are_consistent() {
        for p in [Profile::quick(), Profile::full(), Profile::smoke()] {
            assert!(p.shards >= 1);
            assert!(p.service_exp_mean > 0.0);
            assert!(!p.rho_points.is_empty());
            assert!(p.rho_points.iter().all(|&r| r > 0.0 && r < 1.0));
            assert!(p.q > 0.0 && p.q < 1.0);
        }
        assert!(Profile::full().duration > Profile::quick().duration);
        assert!(Profile::smoke().duration < Profile::quick().duration);
    }
}
