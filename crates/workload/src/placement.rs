//! Key-to-server placement — the paper's key-to-server hashing algorithm
//! and the source of `{p_j}`.

use crate::KeyId;

/// FNV-1a 64-bit hash — small, fast, and good enough for key placement.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash a key id (by its little-endian bytes).
#[must_use]
fn hash_key(key: KeyId) -> u64 {
    fnv1a(&key.to_le_bytes())
}

/// SplitMix64 finalizer — spreads structured hash inputs uniformly.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Consistent hashing with virtual nodes (the placement scheme memcached
/// clients like ketama use).
///
/// # Examples
///
/// ```
/// use memlat_workload::ConsistentHashRing;
/// let ring = ConsistentHashRing::new(4, 160);
/// let s = ring.server_of(42);
/// assert!(s < 4);
/// // Stable: same key, same server.
/// assert_eq!(s, ring.server_of(42));
/// ```
#[derive(Debug, Clone)]
pub struct ConsistentHashRing {
    /// Sorted `(point, server)` pairs.
    ring: Vec<(u64, usize)>,
    servers: usize,
}

impl ConsistentHashRing {
    /// Builds a ring with `vnodes` virtual nodes per server.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `vnodes == 0`.
    #[must_use]
    pub fn new(servers: usize, vnodes: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(vnodes > 0, "need at least one virtual node");
        let mut ring = Vec::with_capacity(servers * vnodes);
        for s in 0..servers {
            for v in 0..vnodes {
                // FNV alone clusters on near-identical strings; a
                // SplitMix64-style finalizer spreads the ring points.
                let point = mix64(fnv1a(format!("server-{s}-vnode-{v}").as_bytes()));
                ring.push((point, s));
            }
        }
        ring.sort_unstable();
        ring.dedup_by_key(|e| e.0);
        Self { ring, servers }
    }

    /// Removes a server, remapping its arc to the clockwise successors —
    /// used to demo rebalancing in the examples.
    #[must_use]
    pub fn without_server(&self, server: usize) -> Self {
        let ring: Vec<(u64, usize)> = self
            .ring
            .iter()
            .copied()
            .filter(|&(_, s)| s != server)
            .collect();
        Self {
            ring,
            servers: self.servers,
        }
    }

    /// The server index a key is stored on: the owner of the first ring
    /// point at or clockwise after the key's hash.
    #[must_use]
    pub fn server_of(&self, key: KeyId) -> usize {
        let h = hash_key(key);
        let idx = self.ring.partition_point(|&(p, _)| p < h);
        let (_, server) = self.ring[idx % self.ring.len()];
        server
    }

    /// Number of servers.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }
}

/// Estimates the load shares `{p_j}` a ring induces on a key
/// population by sampling `draws` keys from `sample_key`.
pub fn induced_shares(
    ring: &ConsistentHashRing,
    mut sample_key: impl FnMut() -> KeyId,
    draws: usize,
) -> Vec<f64> {
    let mut counts = vec![0u64; ring.servers()];
    for _ in 0..draws {
        counts[ring.server_of(sample_key())] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / draws as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vector() {
        // FNV-1a("") = offset basis; FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn ring_is_stable_and_roughly_uniform() {
        let ring = ConsistentHashRing::new(4, 256);
        let mut counts = [0u64; 4];
        for k in 0..40_000u64 {
            let s = ring.server_of(k);
            assert_eq!(s, ring.server_of(k));
            counts[s] += 1;
        }
        for c in counts {
            // Consistent hashing is only approximately uniform.
            assert!((c as f64 / 10_000.0 - 1.0).abs() < 0.25, "{counts:?}");
        }
    }

    #[test]
    fn ring_removal_only_moves_owned_keys() {
        let ring = ConsistentHashRing::new(4, 128);
        let smaller = ring.without_server(2);
        let mut moved = 0;
        let total = 10_000u64;
        for k in 0..total {
            let before = ring.server_of(k);
            let after = smaller.server_of(k);
            assert_ne!(after, 2);
            if before != after {
                assert_eq!(before, 2, "key {k} moved without leaving server 2");
                moved += 1;
            }
        }
        assert!(moved > 0);
        // Roughly a quarter of keys should move.
        assert!((moved as f64 / total as f64 - 0.25).abs() < 0.1);
    }
}
