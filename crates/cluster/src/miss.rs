//! Per-server miss state, a closed enum over two deciders: the paper's
//! ideal fixed-ratio coin flip, or a real slab/LRU store whose miss
//! ratio *emerges* from Zipf traffic against a finite memory budget.
//!
//! Both deciders run on the server's block lanes when the run is
//! healthy (see [`crate::server`]). [`FixedRatioMiss`] is an i.i.d. coin
//! flip, so the lanes bank one miss uniform per key and keep its bit-
//! exact RNG draw sequence (goldens and FNV fingerprints must not move).
//! [`LruBackedMiss`] consults a store, samples value sizes, and (under
//! consistent-hash routing) draws from its server's conditional key
//! population; the lanes run its decisions in stream order while the
//! arrival driver stages keys, which is exact because the decider never
//! stores an expiring item (its `now` cannot change a decision). The
//! dispatch is a `match`, and every draw is generic over the RNG type,
//! so nothing on the per-key path goes through a vtable.

use std::sync::Arc;

use memlat_cache::{Store, StoreConfig};
use memlat_dist::{GeneralizedPareto, ParamError};
use memlat_workload::{RoutedKeyspace, ZipfPopularity};
use rand::RngCore;

use crate::config::{CacheRouting, MissMode};
use crate::database::NO_KEY;

/// Per-server miss state: decides, for each served key, whether it
/// missed the cache.
///
/// Every decider's RNG consumption is well-defined per call — the
/// cluster gives every server its own seed-derived stream, so any
/// deterministic consumption pattern preserves 1-vs-N-thread
/// bit-identity.
pub enum MissState {
    /// The paper's i.i.d. coin flip.
    Fixed(FixedRatioMiss),
    /// A slab/LRU store behind every decision.
    Lru(LruBackedMiss),
}

impl MissState {
    /// `Some(r)` when misses are an i.i.d. coin flip with ratio `r`,
    /// `None` for the stateful LRU decider.
    #[must_use]
    pub fn fixed_ratio(&self) -> Option<f64> {
        match self {
            Self::Fixed(f) => Some(f.ratio),
            Self::Lru(_) => None,
        }
    }

    /// Whether the key served at simulated time `now` misses, plus the
    /// sampled key identity ([`NO_KEY`] when the decider draws none).
    #[inline]
    pub fn decide<R: RngCore + ?Sized>(&mut self, now: f64, rng: &mut R) -> (bool, u64) {
        match self {
            Self::Fixed(f) => f.decide(rng),
            Self::Lru(l) => l.decide(now, rng),
        }
    }

    /// Items resident in the backing store (0 without one). For
    /// LRU-backed runs this is the steady-state cache size in *items* —
    /// the `x` of the Ji/Quan/Tan asymptotic.
    #[must_use]
    pub fn cached_items(&self) -> u64 {
        match self {
            Self::Fixed(_) => 0,
            Self::Lru(l) => l.cached_items(),
        }
    }
}

/// The paper's assumption: every key misses independently with ratio
/// `r`, no key identity, no state.
#[derive(Debug, Clone, Copy)]
pub struct FixedRatioMiss {
    ratio: f64,
}

impl FixedRatioMiss {
    /// A coin-flip decider with miss ratio `r`.
    #[must_use]
    pub fn new(ratio: f64) -> Self {
        Self { ratio }
    }

    /// The miss ratio `r`.
    #[must_use]
    pub(crate) fn ratio(&self) -> f64 {
        self.ratio
    }

    /// One coin flip: one uniform when `r > 0`, nothing otherwise.
    #[inline]
    pub(crate) fn decide<R: RngCore + ?Sized>(&self, rng: &mut R) -> (bool, u64) {
        // r ≤ 0 draws nothing: the zero-miss stream must stay bit-
        // identical to the historical output.
        if self.ratio <= 0.0 {
            (false, NO_KEY)
        } else {
            (memlat_dist::open_unit(rng) < self.ratio, NO_KEY)
        }
    }
}

/// The key population an LRU-backed server samples from.
enum Population {
    /// The full Zipf key space — every server sees a statistically
    /// identical independent stream (no routing).
    Full(Arc<ZipfPopularity>),
    /// This server's slice of the consistent-hash ring: keys are drawn
    /// from the conditional law `P(k) / p_j` over the keys it owns.
    Routed {
        keyspace: Arc<RoutedKeyspace>,
        server: usize,
    },
}

/// A real slab/LRU store behind the miss decision: every served key is
/// sampled from the population, looked up, and demand-filled on miss
/// with a value drawn from the Facebook size law.
///
/// **Invariant: no stored item ever expires.** Demand fills carry no
/// TTL, so a lookup's outcome depends only on the key sequence, never
/// on `now`. The server's block lanes rely on this: they decide each
/// key while the arrival driver stages it, before its departure time
/// exists.
pub struct LruBackedMiss {
    // Boxed: the slab store dwarfs the fixed-ratio variant.
    store: Box<Store>,
    population: Population,
    value_sizes: GeneralizedPareto,
}

impl LruBackedMiss {
    /// Samples a key, looks it up at `now` and demand-fills it on a
    /// miss. Draws the key (one `next_u64` from an alias table; one or
    /// more under rejection-inversion), then one more for the value size
    /// on a miss.
    #[inline]
    pub(crate) fn decide<R: RngCore + ?Sized>(&mut self, now: f64, rng: &mut R) -> (bool, u64) {
        let key = match &self.population {
            Population::Full(pop) => pop.sample_key(rng),
            Population::Routed { keyspace, server } => keyspace.sample_key(*server, rng),
        };
        if self.store.get(key, now).is_hit() {
            (false, key)
        } else {
            // Demand fill: the value fetched from the database is cached
            // (items larger than the biggest chunk are simply not
            // cached, like memcached). No TTL — see the type's invariant.
            let size = self.value_sizes.sample_with(rng).max(1.0) as usize;
            let _ = self.store.set(key, size, None, now);
            (true, key)
        }
    }

    /// Items resident in the store.
    #[must_use]
    pub(crate) fn cached_items(&self) -> u64 {
        self.store.len() as u64
    }
}

/// One server's slice of a cluster-built consistent-hash routing table:
/// the shared [`RoutedKeyspace`] plus this server's ring position.
#[derive(Debug, Clone)]
pub struct RoutedHandle {
    /// The ring-conditioned key populations, shared across servers.
    pub keyspace: Arc<RoutedKeyspace>,
    /// This server's index on the ring.
    pub server: usize,
}

/// Builds the miss state a server runs with.
///
/// The prebuilt handles exist so the O(keyspace) table builds happen
/// once per cluster configuration, not once per server per sweep point:
/// `popularity` for the unrouted population, `routed` for the
/// ring-conditioned one. Either handle must agree with the mode's own
/// config — the [`crate::config::CacheBackedConfig`] is the single
/// source of truth, and a mismatched handle is a hard error, not a
/// silent reinterpretation.
///
/// # Errors
///
/// Returns [`ParamError`] when the mode's parameters are invalid, when a
/// prebuilt handle disagrees with the config, or when
/// [`CacheRouting::ConsistentHash`] is requested without a routed handle
/// (the ring spans servers, so only the cluster layer can build it).
pub fn build_miss_state(
    mode: &MissMode,
    miss_ratio: f64,
    popularity: Option<&Arc<ZipfPopularity>>,
    routed: Option<&RoutedHandle>,
) -> Result<MissState, ParamError> {
    match mode {
        MissMode::FixedRatio => Ok(MissState::Fixed(FixedRatioMiss::new(miss_ratio))),
        MissMode::CacheBacked(cfg) => {
            let population = match cfg.routing {
                CacheRouting::Independent => {
                    let pop = match popularity {
                        Some(p) => {
                            if p.keys() != cfg.keyspace || p.skew().to_bits() != cfg.skew.to_bits()
                            {
                                return Err(ParamError::new(format!(
                                    "prebuilt popularity ({} keys, skew {}) disagrees with the \
                                     cache config ({} keys, skew {})",
                                    p.keys(),
                                    p.skew(),
                                    cfg.keyspace,
                                    cfg.skew
                                )));
                            }
                            Arc::clone(p)
                        }
                        None => Arc::new(ZipfPopularity::new(cfg.keyspace, cfg.skew)?),
                    };
                    Population::Full(pop)
                }
                CacheRouting::ConsistentHash { vnodes } => {
                    let h = routed.ok_or_else(|| {
                        ParamError::new(
                            "consistent-hash routing needs the cluster-built ring \
                             (run through ClusterSim, which owns the server set)",
                        )
                    })?;
                    let ks = &h.keyspace;
                    if ks.keys() != cfg.keyspace
                        || ks.skew().to_bits() != cfg.skew.to_bits()
                        || ks.vnodes() != vnodes
                    {
                        return Err(ParamError::new(format!(
                            "routed keyspace ({} keys, skew {}, {} vnodes) disagrees with the \
                             cache config ({} keys, skew {}, {} vnodes)",
                            ks.keys(),
                            ks.skew(),
                            ks.vnodes(),
                            cfg.keyspace,
                            cfg.skew,
                            vnodes
                        )));
                    }
                    if h.server >= ks.servers() {
                        return Err(ParamError::new(format!(
                            "routed server index {} out of range ({} servers on the ring)",
                            h.server,
                            ks.servers()
                        )));
                    }
                    Population::Routed {
                        keyspace: Arc::clone(&h.keyspace),
                        server: h.server,
                    }
                }
            };
            Ok(MissState::Lru(LruBackedMiss {
                store: Box::new(
                    Store::new(StoreConfig::with_memory(cfg.memory_bytes))
                        .map_err(|e| ParamError::new(e.to_string()))?,
                ),
                population,
                value_sizes: GeneralizedPareto::with_mean(0.35, cfg.mean_value_bytes)?,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheBackedConfig;
    use rand::SeedableRng;

    fn cache_cfg() -> CacheBackedConfig {
        CacheBackedConfig {
            memory_bytes: 4 << 20,
            keyspace: 50_000,
            skew: 1.1,
            mean_value_bytes: 300.0,
            routing: CacheRouting::Independent,
        }
    }

    #[test]
    fn fixed_ratio_contract() {
        let mut s = MissState::Fixed(FixedRatioMiss::new(0.25));
        assert_eq!(s.fixed_ratio(), Some(0.25));
        assert_eq!(s.cached_items(), 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut misses = 0;
        for _ in 0..10_000 {
            let (m, k) = s.decide(0.0, &mut rng);
            assert_eq!(k, NO_KEY);
            misses += u64::from(m);
        }
        let frac = misses as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "{frac}");
    }

    #[test]
    fn zero_ratio_draws_nothing() {
        use rand::RngCore;
        let mut s = MissState::Fixed(FixedRatioMiss::new(0.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let before = rng.clone().next_u64();
        assert_eq!(s.decide(0.0, &mut rng), (false, NO_KEY));
        assert_eq!(rng.next_u64(), before, "zero-ratio decide consumed RNG");
    }

    #[test]
    fn lru_backed_reports_store_state() {
        let mode = MissMode::CacheBacked(cache_cfg());
        let mut s = build_miss_state(&mode, 0.0, None, None).unwrap();
        assert_eq!(s.fixed_ratio(), None);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut misses = 0u32;
        for i in 0..20_000 {
            let now = i as f64 * 1e-5;
            let (missed, key) = s.decide(now, &mut rng);
            assert!(key < 50_000);
            misses += u32::from(missed);
        }
        assert!(misses > 0 && misses < 20_000, "{misses}");
        assert!(s.cached_items() > 0);
    }

    /// The invariant the server's block lanes rely on: an LRU decision
    /// depends on the key sequence alone, never on `now`, so deciding a
    /// key before its departure time exists changes nothing.
    #[test]
    fn lru_decisions_do_not_depend_on_now() {
        use rand::RngCore;
        let routed = CacheBackedConfig {
            routing: CacheRouting::ConsistentHash { vnodes: 32 },
            ..cache_cfg()
        };
        let pop = ZipfPopularity::new(50_000, 1.1).unwrap();
        let handle = RoutedHandle {
            keyspace: Arc::new(RoutedKeyspace::new(&pop, 3, 32).unwrap()),
            server: 1,
        };
        for (cfg, handle) in [(cache_cfg(), None), (routed, Some(&handle))] {
            let mode = MissMode::CacheBacked(cfg);
            let clocks: [&dyn Fn(usize) -> f64; 4] =
                [&|_| 0.0, &|i| i as f64 * 1e-5, &|i| 1e9 - i as f64, &|i| {
                    if i % 2 == 0 {
                        1e12
                    } else {
                        -1e12
                    }
                }];
            let mut reference = None;
            for clock in clocks {
                let mut s = build_miss_state(&mode, 0.0, None, handle).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(11);
                let seq: Vec<(bool, u64)> =
                    (0..30_000).map(|i| s.decide(clock(i), &mut rng)).collect();
                let MissState::Lru(lru) = &s else {
                    panic!("cache-backed mode built a fixed decider");
                };
                let got = (seq, lru.store.stats(), s.cached_items(), rng.next_u64());
                assert!(got.1.misses > 0 && got.1.hits > 0 && got.1.sets > 0);
                assert_eq!(got.1.expired, 0);
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(&got, want),
                }
            }
        }
    }

    #[test]
    fn prebuilt_popularity_mismatch_is_a_hard_error() {
        let mode = MissMode::CacheBacked(cache_cfg());
        let wrong_keys = Arc::new(ZipfPopularity::new(10_000, 1.1).unwrap());
        assert!(build_miss_state(&mode, 0.0, Some(&wrong_keys), None).is_err());
        let wrong_skew = Arc::new(ZipfPopularity::new(50_000, 0.9).unwrap());
        assert!(build_miss_state(&mode, 0.0, Some(&wrong_skew), None).is_err());
        let right = Arc::new(ZipfPopularity::new(50_000, 1.1).unwrap());
        assert!(build_miss_state(&mode, 0.0, Some(&right), None).is_ok());
    }

    #[test]
    fn routed_mode_requires_a_matching_handle() {
        let mut cfg = cache_cfg();
        cfg.routing = CacheRouting::ConsistentHash { vnodes: 32 };
        let mode = MissMode::CacheBacked(cfg);
        // No handle: only the cluster can build the ring.
        assert!(build_miss_state(&mode, 0.0, None, None).is_err());
        let pop = ZipfPopularity::new(50_000, 1.1).unwrap();
        let ks = Arc::new(RoutedKeyspace::new(&pop, 4, 32).unwrap());
        let good = RoutedHandle {
            keyspace: Arc::clone(&ks),
            server: 2,
        };
        assert!(build_miss_state(&mode, 0.0, None, Some(&good)).is_ok());
        // Wrong vnode count, wrong server index: hard errors.
        let wrong_ring = Arc::new(RoutedKeyspace::new(&pop, 4, 16).unwrap());
        let bad_vnodes = RoutedHandle {
            keyspace: wrong_ring,
            server: 0,
        };
        assert!(build_miss_state(&mode, 0.0, None, Some(&bad_vnodes)).is_err());
        let bad_server = RoutedHandle {
            keyspace: ks,
            server: 4,
        };
        assert!(build_miss_state(&mode, 0.0, None, Some(&bad_server)).is_err());
    }

    #[test]
    fn routed_decide_stays_in_the_owned_slice() {
        let mut cfg = cache_cfg();
        cfg.routing = CacheRouting::ConsistentHash { vnodes: 64 };
        let mode = MissMode::CacheBacked(cfg);
        let pop = ZipfPopularity::new(50_000, 1.1).unwrap();
        let ks = Arc::new(RoutedKeyspace::new(&pop, 3, 64).unwrap());
        let mut s = build_miss_state(
            &mode,
            0.0,
            None,
            Some(&RoutedHandle {
                keyspace: Arc::clone(&ks),
                server: 1,
            }),
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for i in 0..2_000 {
            let (_, key) = s.decide(i as f64 * 1e-5, &mut rng);
            assert_eq!(ks.server_of(key), 1, "foreign key {key}");
        }
    }
}
