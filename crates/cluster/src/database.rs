//! The database stage: sharded M/M/1 queues fed by cache misses.

use std::collections::HashMap;

use memlat_dist::{Binomial, Discrete};
use rand::RngCore;

/// Sentinel key id for misses that carry no key identity (fixed-ratio
/// coin flips, forced misses from degraded requests). A `NO_KEY` miss
/// never coalesces: it always dispatches its own database fetch.
pub const NO_KEY: u64 = u64::MAX;

/// A missed key arriving at the database layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissArrival {
    /// When the miss reaches the database (the key's completion time at
    /// its memcached server).
    pub time: f64,
    /// Which server / record the latency should be written back to.
    pub origin: (u32, u32),
    /// The key that missed, or [`NO_KEY`] when the miss has no key
    /// identity. Only meaningful to the coalescing relay.
    pub key: u64,
}

/// The database shards as the stage sees them: the last departure of
/// each shard, plus the round-robin cursor. A shard is an FCFS `M/M/1`
/// queue, and a fetch's sojourn needs only the previous departure of its
/// shard, so no other per-shard state is kept.
struct ShardLanes {
    /// Last departure per shard, for the shards round-robin can reach.
    last: Vec<f64>,
    /// The shard the next dispatched fetch goes to.
    next: usize,
    shards: usize,
}

impl ShardLanes {
    /// Lanes for at most `fetches` dispatches over `shards` shards:
    /// round-robin never reaches a shard past the dispatched count, so
    /// `min(shards, fetches)` lanes suffice.
    fn new(shards: usize, fetches: usize) -> Self {
        Self {
            last: vec![0.0; shards.min(fetches)],
            next: 0,
            shards,
        }
    }

    /// Dispatches a fetch arriving at `t` with service `svc` to the next
    /// shard and returns its departure. The float ops are those of
    /// [`memlat_des::FcfsStation::submit`]: `max(t, last) + svc`.
    #[inline]
    fn dispatch(&mut self, t: f64, svc: f64) -> f64 {
        let last = &mut self.last[self.next];
        self.next = (self.next + 1) % self.shards;
        *last = t.max(*last) + svc;
        *last
    }
}

/// Runs the sharded database stage over a **time-sorted** stream of
/// misses; returns `(origin, db_latency)` pairs.
///
/// Shards are independent `M/M/1` queues with service rate `mu_d`;
/// misses are assigned round-robin (the paper assumes the database layer
/// is balanced — §3's "the variation of load size among database servers
/// becomes negligible").
///
/// # Panics
///
/// Panics if the misses are not sorted by time, `shards == 0`, or
/// `mu_d ≤ 0`.
pub fn run_db_stage(
    misses: &[MissArrival],
    shards: usize,
    mu_d: f64,
    rng: &mut dyn RngCore,
) -> Vec<((u32, u32), f64)> {
    let mut out = Vec::with_capacity(misses.len());
    run_db_stage_with(misses, shards, mu_d, rng, |origin, d| out.push((origin, d)));
    out
}

/// Streaming variant of [`run_db_stage`]: delivers each `(origin,
/// db_latency)` to `sink` as it is computed instead of materializing a
/// vector. RNG consumption and outcomes are identical to
/// [`run_db_stage`], so the two are interchangeable for a fixed seed.
///
/// # Panics
///
/// Same contract as [`run_db_stage`].
pub fn run_db_stage_with(
    misses: &[MissArrival],
    shards: usize,
    mu_d: f64,
    rng: &mut dyn RngCore,
    mut sink: impl FnMut((u32, u32), f64),
) {
    db_stage(misses, shards, mu_d, false, rng, |origin, d, _| {
        sink(origin, d)
    });
}

/// Coalescing variant of [`run_db_stage_with`]: per-key outstanding-fetch
/// tracking with delayed hits.
///
/// The first miss for a key dispatches a database fetch exactly like
/// [`run_db_stage_with`]. While that fetch is outstanding (its departure
/// time lies in the future), every later miss for the same key parks as a
/// waiter and resolves at the fetch's completion — a **delayed hit**
/// whose latency is the residual `completion − arrival`, drawn from no
/// RNG at all. Once the fetch completes, the next miss for the key
/// dispatches afresh (the cache-backed store already decided the key was
/// evicted again).
///
/// `sink` receives `(origin, db_latency, delayed)` where `delayed` marks
/// delayed hits. [`NO_KEY`] misses never coalesce, so on a stream of only
/// `NO_KEY` misses this function consumes the RNG identically to
/// [`run_db_stage_with`] and produces the same latencies — the basis of
/// the coalescing-off differential suite.
///
/// # Panics
///
/// Same contract as [`run_db_stage`].
pub fn run_db_stage_coalesced_with(
    misses: &[MissArrival],
    shards: usize,
    mu_d: f64,
    rng: &mut dyn RngCore,
    sink: impl FnMut((u32, u32), f64, bool),
) {
    db_stage(misses, shards, mu_d, true, rng, sink);
}

/// The one database-stage engine behind [`run_db_stage_with`] and
/// [`run_db_stage_coalesced_with`]: with `coalesce` off no miss parks,
/// and `sink`'s `delayed` is always `false`.
pub(crate) fn db_stage(
    misses: &[MissArrival],
    shards: usize,
    mu_d: f64,
    coalesce: bool,
    rng: &mut dyn RngCore,
    mut sink: impl FnMut((u32, u32), f64, bool),
) {
    assert!(shards > 0, "need at least one database shard");
    assert!(mu_d > 0.0, "database service rate must be positive");
    let mut lanes = ShardLanes::new(shards, misses.len());
    // Completion time of the outstanding fetch per key. Entries whose
    // departure is in the past are stale (the fetch already landed) and
    // are overwritten on the next dispatch for that key.
    let mut outstanding: HashMap<u64, f64> = HashMap::new();
    let mut prev_t = f64::NEG_INFINITY;
    for m in misses {
        assert!(m.time >= prev_t, "misses must be sorted by time");
        prev_t = m.time;
        let keyed = coalesce && m.key != NO_KEY;
        if keyed {
            if let Some(&done_at) = outstanding.get(&m.key) {
                if done_at > m.time {
                    sink(m.origin, done_at - m.time, true);
                    continue;
                }
            }
        }
        let svc = -memlat_dist::simd::dln(memlat_dist::open_unit(rng)) / mu_d;
        let departure = lanes.dispatch(m.time, svc);
        if keyed {
            outstanding.insert(m.key, departure);
        }
        sink(m.origin, departure - m.time, false);
    }
}

/// Statistics of a db-only experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbExperimentResult {
    /// Mean of `T_D(N) = max_i d_i` over the simulated requests.
    pub mean_td: f64,
    /// Fraction of requests with at least one miss.
    pub frac_any_miss: f64,
    /// Mean number of missed keys per request.
    pub mean_misses: f64,
}

/// Fast path for the paper's Figs. 11 and 13: simulates only the
/// database stage.
///
/// Per the model (§3), misses form a Poisson stream at the database; each
/// request contributes `K ~ Bin(N, r)` of them. We simulate `requests`
/// requests: draw `K`, draw `K` sojourn times from a lightly loaded
/// `M/M/1` (the shard count keeps `ρ_D` at the paper's "greatly
/// offloaded" level), and record `max_i d_i`.
///
/// The M/M/1 sojourn under `ρ ≪ 1` is `Exp((1−ρ)μ_D)`; we draw from that
/// law directly with the configured shard utilization, which is exactly
/// the regime the paper's eq. 19 assumes.
///
/// # Panics
///
/// Panics if `r ∉ [0, 1]` or `mu_d ≤ 0`.
pub fn db_only_experiment(
    n: u64,
    r: f64,
    mu_d: f64,
    shard_utilization: f64,
    requests: usize,
    rng: &mut dyn RngCore,
) -> DbExperimentResult {
    assert!((0.0..=1.0).contains(&r), "miss ratio out of range: {r}");
    assert!(mu_d > 0.0, "database service rate must be positive");
    assert!(
        (0.0..1.0).contains(&shard_utilization),
        "shard utilization must be in [0,1)"
    );
    let k_dist = Binomial::new(n, r).expect("validated");
    let effective_rate = (1.0 - shard_utilization) * mu_d;
    let mut sum_td = 0.0;
    let mut any = 0u64;
    let mut total_k = 0u64;
    for _ in 0..requests {
        let k = k_dist.sample(rng);
        total_k += k;
        if k == 0 {
            continue;
        }
        any += 1;
        let mut worst = 0.0f64;
        for _ in 0..k {
            let d = -memlat_dist::simd::dln(memlat_dist::open_unit(rng)) / effective_rate;
            worst = worst.max(d);
        }
        sum_td += worst;
    }
    DbExperimentResult {
        mean_td: sum_td / requests as f64,
        frac_any_miss: any as f64 / requests as f64,
        mean_misses: total_k as f64 / requests as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn db_stage_is_fcfs_per_shard() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let misses: Vec<MissArrival> = (0..100)
            .map(|i| MissArrival {
                time: i as f64 * 1e-4,
                origin: (0, i),
                key: NO_KEY,
            })
            .collect();
        let out = run_db_stage(&misses, 4, 1_000.0, &mut rng);
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|&(_, d)| d > 0.0));
    }

    #[test]
    fn streaming_variant_is_identical() {
        let misses: Vec<MissArrival> = (0..500)
            .map(|i| MissArrival {
                time: f64::from(i) * 2e-4,
                origin: (1, i),
                key: NO_KEY,
            })
            .collect();
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(7);
        let vec_form = run_db_stage(&misses, 3, 1_000.0, &mut rng_a);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(7);
        let mut streamed = Vec::new();
        run_db_stage_with(&misses, 3, 1_000.0, &mut rng_b, |o, d| {
            streamed.push((o, d))
        });
        assert_eq!(vec_form, streamed);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn db_stage_rejects_unsorted() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let misses = vec![
            MissArrival {
                time: 1.0,
                origin: (0, 0),
                key: NO_KEY,
            },
            MissArrival {
                time: 0.5,
                origin: (0, 1),
                key: NO_KEY,
            },
        ];
        let _ = run_db_stage(&misses, 1, 1_000.0, &mut rng);
    }

    #[test]
    fn db_stage_mean_matches_mm1_when_offloaded() {
        // Poisson misses at 50/s over 10 shards of μ=1000/s ⇒ per-shard
        // ρ = 0.005; sojourn ≈ 1 ms.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut t = 0.0;
        let misses: Vec<MissArrival> = (0..20_000)
            .map(|i| {
                t += -memlat_dist::open_unit(&mut rng).ln() / 50.0;
                MissArrival {
                    time: t,
                    origin: (0, i),
                    key: NO_KEY,
                }
            })
            .collect();
        let out = run_db_stage(&misses, 10, 1_000.0, &mut rng);
        let mean: f64 = out.iter().map(|&(_, d)| d).sum::<f64>() / out.len() as f64;
        assert!((mean * 1e3 - 1.0).abs() < 0.05, "mean={}", mean * 1e3);
    }

    #[test]
    fn coalesced_matches_independent_on_keyless_stream() {
        // A NO_KEY-only stream never coalesces: RNG consumption and every
        // latency must be identical to the legacy stage.
        let misses: Vec<MissArrival> = (0..800)
            .map(|i| MissArrival {
                time: f64::from(i) * 1.3e-4,
                origin: (2, i),
                key: NO_KEY,
            })
            .collect();
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(11);
        let legacy = run_db_stage(&misses, 5, 1_000.0, &mut rng_a);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(11);
        let mut coalesced = Vec::new();
        run_db_stage_coalesced_with(&misses, 5, 1_000.0, &mut rng_b, |o, d, delayed| {
            assert!(!delayed, "keyless miss flagged as delayed hit");
            coalesced.push((o, d));
        });
        assert_eq!(legacy, coalesced);
        // Both RNGs must have advanced identically.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn coalesced_collapses_concurrent_same_key_misses() {
        // Three misses for key 7 land 0.1 ms apart; μ_D = 100/s makes the
        // fetch ~10 ms, so the later two must park as delayed hits with
        // exact residual latencies.
        let misses = vec![
            MissArrival {
                time: 0.0,
                origin: (0, 0),
                key: 7,
            },
            MissArrival {
                time: 1e-4,
                origin: (0, 1),
                key: 7,
            },
            MissArrival {
                time: 2e-4,
                origin: (1, 0),
                key: 7,
            },
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut out = Vec::new();
        run_db_stage_coalesced_with(&misses, 2, 100.0, &mut rng, |o, d, delayed| {
            out.push((o, d, delayed));
        });
        assert_eq!(out.len(), 3);
        let (_, fetch, delayed0) = out[0];
        assert!(!delayed0);
        // Residuals: completion = fetch (arrival 0, empty station), so the
        // waiter at t has latency fetch − t exactly.
        assert_eq!(out[1], ((0, 1), fetch - 1e-4, true));
        assert_eq!(out[2], ((1, 0), fetch - 2e-4, true));
        // A fourth miss after the fetch completed dispatches afresh.
        let late = vec![
            misses[0],
            MissArrival {
                time: fetch + 1.0,
                origin: (3, 3),
                key: 7,
            },
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut flags = Vec::new();
        run_db_stage_coalesced_with(&late, 2, 100.0, &mut rng, |_, _, delayed| {
            flags.push(delayed);
        });
        assert_eq!(flags, vec![false, false]);
    }

    #[test]
    fn coalesced_distinct_keys_do_not_interact() {
        let misses: Vec<MissArrival> = (0..50)
            .map(|i| MissArrival {
                time: f64::from(i) * 1e-6,
                origin: (0, i),
                key: u64::from(i),
            })
            .collect();
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(21);
        let legacy = run_db_stage(&misses, 3, 1_000.0, &mut rng_a);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(21);
        let mut out = Vec::new();
        run_db_stage_coalesced_with(&misses, 3, 1_000.0, &mut rng_b, |o, d, delayed| {
            assert!(!delayed);
            out.push((o, d));
        });
        assert_eq!(legacy, out);
    }

    /// The database stage over one `FcfsStation` per shard:
    /// `(origin, sojourn bits, delayed)` per miss, and the RNG's next
    /// draw. With `coalesce`, keyed misses park behind an outstanding
    /// fetch exactly as in [`run_db_stage_coalesced_with`].
    fn station_reference(
        misses: &[MissArrival],
        shards: usize,
        mu_d: f64,
        coalesce: bool,
        seed: u64,
    ) -> (Vec<((u32, u32), u64, bool)>, u64) {
        use memlat_des::FcfsStation;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut stations: Vec<FcfsStation> = (0..shards).map(|_| FcfsStation::new()).collect();
        let mut outstanding: HashMap<u64, f64> = HashMap::new();
        let mut next = 0usize;
        let mut out = Vec::new();
        for m in misses {
            if coalesce && m.key != NO_KEY {
                if let Some(&done_at) = outstanding.get(&m.key) {
                    if done_at > m.time {
                        out.push((m.origin, (done_at - m.time).to_bits(), true));
                        continue;
                    }
                }
            }
            let svc = -memlat_dist::simd::dln(memlat_dist::open_unit(&mut rng)) / mu_d;
            let done = stations[next].submit(m.time, svc);
            next = (next + 1) % shards;
            if m.key != NO_KEY {
                outstanding.insert(m.key, done.departure);
            }
            out.push((m.origin, done.sojourn().to_bits(), false));
        }
        (out, rng.next_u64())
    }

    #[test]
    fn shard_lanes_match_per_shard_fcfs_stations() {
        // Poisson misses at 4 000/s, with ties, over shards of μ_D =
        // 1 000/s: one or three shards queue, many shards sit idle, so
        // `max(t, last)` takes both branches. Keys come from a small set
        // so the coalesced stream repeats keys while their fetches are
        // outstanding.
        let mut draw = rand::rngs::StdRng::seed_from_u64(31);
        let mut t = 0.0;
        let misses: Vec<MissArrival> = (0..600)
            .map(|i| {
                if i % 7 != 0 {
                    t += -memlat_dist::open_unit(&mut draw).ln() / 4_000.0;
                }
                MissArrival {
                    time: t,
                    origin: (i % 5, i),
                    key: if i % 11 == 0 {
                        NO_KEY
                    } else {
                        draw.next_u64() % 40
                    },
                }
            })
            .collect();
        // More shards than misses, fewer, one, and empty streams.
        for (n, shards) in [(600, 1000), (9, 40), (600, 3), (600, 1), (1, 5), (0, 2)] {
            let stream = &misses[..n];
            let mut rng = rand::rngs::StdRng::seed_from_u64(32);
            let mut got = Vec::new();
            run_db_stage_with(stream, shards, 1_000.0, &mut rng, |o, d| {
                got.push((o, d.to_bits(), false));
            });
            let want = station_reference(stream, shards, 1_000.0, false, 32);
            assert_eq!((got, rng.next_u64()), want, "n={n} shards={shards}");

            let mut rng = rand::rngs::StdRng::seed_from_u64(33);
            let mut got = Vec::new();
            run_db_stage_coalesced_with(stream, shards, 1_000.0, &mut rng, |o, d, delayed| {
                got.push((o, d.to_bits(), delayed));
            });
            let want = station_reference(stream, shards, 1_000.0, true, 33);
            if n == 600 {
                assert!(want.0.iter().any(|&(_, _, delayed)| delayed));
            }
            assert_eq!(
                (got, rng.next_u64()),
                want,
                "coalesced n={n} shards={shards}"
            );
        }
    }

    #[test]
    fn db_only_matches_eq23_table3() {
        // N=150, r=0.01, 1/μ_D = 1 ms: the paper's Theorem-1 value is
        // 836 µs; its own measurement was 867 µs. The exact-in-model
        // value (binomial × harmonic) is what the simulation estimates.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let res = db_only_experiment(150, 0.01, 1_000.0, 0.0, 200_000, &mut rng);
        let exact = memlat_model::database::db_latency_mean_exact(150, 0.01, 1_000.0);
        assert!(
            (res.mean_td / exact - 1.0).abs() < 0.03,
            "sim={} vs exact-model={}",
            res.mean_td,
            exact
        );
        // Eq. 23's approximation (836 µs) sits ~23% *below* the exact
        // value (~1084 µs); the paper's own measurement (867 µs) is near
        // the approximation — see EXPERIMENTS.md for the discussion.
        let eq23 = memlat_model::database::db_latency_mean(150, 0.01, 1_000.0);
        assert!(
            res.mean_td > eq23,
            "simulation should exceed the eq. 23 estimate"
        );
        assert!(res.mean_td < 1.45 * eq23);
        assert!((res.frac_any_miss - 0.7785).abs() < 0.01);
        assert!((res.mean_misses - 1.5).abs() < 0.05);
    }

    #[test]
    fn db_only_zero_misses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let res = db_only_experiment(100, 0.0, 1_000.0, 0.0, 1_000, &mut rng);
        assert_eq!(res.mean_td, 0.0);
        assert_eq!(res.frac_any_miss, 0.0);
    }
}
