//! Consistent-hash key routing: the global Zipf stream conditioned on
//! server ownership.
//!
//! A memcached client hashes every key onto the ring once; each server
//! then sees the global arrival stream *thinned* to the keys it owns.
//! [`RoutedKeyspace`] precomputes that decomposition: the exact load
//! share `p_j = Σ_{k owned by j} P(k)` of every server, and a
//! per-server conditional sampler that draws owned keys with
//! probability `P(k) / p_j`.
//!
//! Sampling a server by `{p_j}` and then a key from its conditional
//! sampler is distributionally identical to sampling a global Zipf key
//! and routing it — but it keeps the simulator's per-server RNG streams
//! independent, which is what preserves 1-vs-N-thread bit-identity.
//! (Poisson thinning further guarantees each server's arrival process
//! stays the same renewal family at rate `p_j · Λ`.)
//!
//! # Examples
//!
//! ```
//! use memlat_workload::{RoutedKeyspace, ZipfPopularity};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), memlat_dist::ParamError> {
//! let pop = ZipfPopularity::new(100_000, 1.01)?;
//! let routed = RoutedKeyspace::new(&pop, 4, 128)?;
//! assert_eq!(routed.shares().len(), 4);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let key = routed.sample_key(0, &mut rng);
//! assert_eq!(routed.server_of(key), 0);
//! # Ok(())
//! # }
//! ```

use memlat_dist::ParamError;
use rand::RngCore;

use crate::placement::ConsistentHashRing;
use crate::popularity::{WeightedAlias, ZipfPopularity};
use crate::KeyId;

/// The global Zipf key space split across servers by a consistent-hash
/// ring: exact per-server load shares plus per-server conditional key
/// samplers.
///
/// Construction walks the key space once (`O(keys)` ring lookups) and
/// builds one [`WeightedAlias`] per server over its owned keys, labelled
/// by key id, so it is meant to be built once per configuration and
/// shared (e.g. behind an `Arc`) across workers. It reads only the popularity law's pmf, so the
/// [`ZipfPopularity`] it is built from never builds its own alias table.
#[derive(Debug)]
pub struct RoutedKeyspace {
    ring: ConsistentHashRing,
    keys: u64,
    skew: f64,
    vnodes: usize,
    shares: Vec<f64>,
    /// Per server: conditional sampler over its owned keys, whose cell
    /// labels are the owned key ids, ascending (None iff no keys).
    samplers: Vec<Option<WeightedAlias>>,
}

impl RoutedKeyspace {
    /// Splits `popularity`'s key space over `servers` ring members with
    /// `vnodes` virtual nodes each.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `servers` or `vnodes` is zero, or the
    /// key space is too large to walk (bounded at 2²⁴ keys, so a key id
    /// fits an alias cell's 24-bit label — the walk is
    /// `O(keys · log(servers · vnodes))` and the result keeps 16 bytes
    /// per key: the alias cell, the key's own id, and the cell's exact
    /// probability).
    ///
    /// The walk takes two passes. The first records each key's owner
    /// (4 bytes per key, freed after the owned-key lists are filled) and
    /// sizes every server's owned-key list exactly. The second builds
    /// one server's sampler at a time through one reused weights
    /// buffer, so at most one server's weights are alive at once.
    pub fn new(
        popularity: &ZipfPopularity,
        servers: usize,
        vnodes: usize,
    ) -> Result<Self, ParamError> {
        if servers == 0 {
            return Err(ParamError::new("routing needs at least one server"));
        }
        if vnodes == 0 {
            return Err(ParamError::new("routing needs at least one virtual node"));
        }
        const MAX_ROUTED_KEYS: u64 = 1 << 24;
        let keys = popularity.keys();
        if keys > MAX_ROUTED_KEYS {
            return Err(ParamError::new(format!(
                "routed key space {keys} exceeds the enumeration bound {MAX_ROUTED_KEYS}"
            )));
        }
        let ring = ConsistentHashRing::new(servers, vnodes);
        let n = usize::try_from(keys).expect("routed key space fits usize");
        // Pass 1: every key's owner, and how many keys each server owns,
        // so the owned-key lists are allocated at their exact size. Key
        // ids fit `u32` under the bound above.
        let mut owner: Vec<u32> = Vec::with_capacity(n);
        let mut counts = vec![0usize; servers];
        for k in 0..keys {
            let j = ring.server_of(k);
            owner.push(u32::try_from(j).expect("server index fits u32"));
            counts[j] += 1;
        }
        let mut owned: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (k, &j) in (0u32..).zip(&owner) {
            owned[j as usize].push(k);
        }
        drop(owner);
        // Pass 2, one server at a time through one weights buffer: its
        // mass, summed in ascending key order, and its conditional
        // sampler, which takes over the owned-key list as its labels.
        let mut weights: Vec<f64> = Vec::with_capacity(counts.iter().copied().max().unwrap_or(0));
        let mut mass = vec![0.0f64; servers];
        let mut samplers: Vec<Option<WeightedAlias>> = Vec::with_capacity(servers);
        for (j, keys_j) in owned.into_iter().enumerate() {
            weights.clear();
            weights.extend(
                keys_j
                    .iter()
                    .map(|&k| popularity.access_probability(KeyId::from(k))),
            );
            for &w in &weights {
                mass[j] += w;
            }
            samplers.push(if weights.is_empty() {
                None
            } else {
                Some(WeightedAlias::with_labels(&weights, keys_j)?)
            });
        }
        // Normalize by the realized total so shares sum to exactly 1
        // even where the pmf's own normalization carries rounding.
        let total: f64 = mass.iter().sum();
        let shares: Vec<f64> = mass.iter().map(|&m| m / total).collect();
        Ok(Self {
            ring,
            keys,
            skew: popularity.skew(),
            vnodes,
            shares,
            samplers,
        })
    }

    /// Number of servers on the ring.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.shares.len()
    }

    /// Virtual nodes per server.
    #[must_use]
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Size of the global key space.
    #[must_use]
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Zipf exponent of the underlying popularity law.
    #[must_use]
    pub fn skew(&self) -> f64 {
        self.skew
    }

    /// Exact load shares `{p_j}` induced by the ring on the popularity
    /// law; sums to 1.
    #[must_use]
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// The server a key routes to.
    #[must_use]
    pub fn server_of(&self, key: KeyId) -> usize {
        self.ring.server_of(key)
    }

    /// The keys a server owns, in ascending id order. Ids are stored as
    /// `u32` (the key space is bounded at 2²⁴ keys); widen with
    /// [`KeyId::from`].
    #[must_use]
    pub fn owned_keys(&self, server: usize) -> &[u32] {
        self.samplers[server]
            .as_ref()
            .map_or(&[], WeightedAlias::labels)
    }

    /// Draws a key from the server's conditional popularity law
    /// (`P(k) / p_j` over its owned keys), consuming exactly one
    /// `next_u64` from `rng` and one 4-byte alias cell (see
    /// [`WeightedAlias`]).
    ///
    /// # Panics
    ///
    /// Panics if the server owns no keys (its share is zero, so a
    /// correctly thinned stream never asks it for one).
    #[inline]
    #[must_use]
    pub fn sample_key<R: RngCore + ?Sized>(&self, server: usize, rng: &mut R) -> KeyId {
        let sampler = self.samplers[server]
            .as_ref()
            .expect("zero-share server received a key draw");
        sampler.sample(rng) as KeyId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shares_sum_to_one_and_cover_all_keys() {
        let pop = ZipfPopularity::new(50_000, 1.2).unwrap();
        let routed = RoutedKeyspace::new(&pop, 5, 64).unwrap();
        let sum: f64 = routed.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum={sum}");
        let total_owned: usize = (0..5).map(|j| routed.owned_keys(j).len()).sum();
        assert_eq!(total_owned as u64, routed.keys());
    }

    #[test]
    fn sampled_keys_are_owned() {
        let pop = ZipfPopularity::new(10_000, 1.01).unwrap();
        let routed = RoutedKeyspace::new(&pop, 3, 32).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for j in 0..3 {
            for _ in 0..500 {
                let k = routed.sample_key(j, &mut rng);
                assert_eq!(routed.server_of(k), j, "server {j} drew foreign key {k}");
            }
        }
    }

    #[test]
    fn conditional_sampler_realizes_the_thinned_law() {
        // Composite check: P(server j via shares, then key k) must equal
        // the global pmf. Compare empirical per-key frequencies on the
        // hottest keys against pmf(k), mixing over servers.
        let pop = ZipfPopularity::new(2_000, 1.1).unwrap();
        let routed = RoutedKeyspace::new(&pop, 4, 64).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let n_per_share = 400_000f64;
        let mut counts = vec![0u64; 2_000];
        for j in 0..4 {
            let draws = (n_per_share * routed.shares()[j]).round() as usize;
            for _ in 0..draws {
                counts[routed.sample_key(j, &mut rng) as usize] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        for k in 0..20u64 {
            let got = counts[k as usize] as f64 / total as f64;
            let expect = pop.access_probability(k);
            assert!(
                (got - expect).abs() < 0.005 + 0.05 * expect,
                "key {k}: got {got} expect {expect}"
            );
        }
    }

    #[test]
    fn rejects_degenerate_params() {
        let pop = ZipfPopularity::new(1_000, 1.0).unwrap();
        assert!(RoutedKeyspace::new(&pop, 0, 16).is_err());
        assert!(RoutedKeyspace::new(&pop, 4, 0).is_err());
    }

    #[test]
    fn huge_keyspace_is_refused_not_walked() {
        let pop = ZipfPopularity::new(1 << 25, 1.01).unwrap();
        assert!(RoutedKeyspace::new(&pop, 4, 16).is_err());
    }
}
