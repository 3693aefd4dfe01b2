//! Deterministic random-stream derivation.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives an independent, reproducible RNG for a named stream of a
/// simulation run.
///
/// Mixing the run seed with a stream identifier through SplitMix64 means
/// every logical stream (per-server arrivals, service times, miss coin
/// flips, …) is statistically independent, and adding a new stream never
/// perturbs the draws of existing ones — replications stay comparable
/// across code changes.
///
/// # Examples
///
/// ```
/// use memlat_des::stream_rng;
/// use rand::Rng;
/// let mut a = stream_rng(7, 0);
/// let mut b = stream_rng(7, 1);
/// let mut a2 = stream_rng(7, 0);
/// assert_eq!(a.gen::<u64>(), a2.gen::<u64>()); // reproducible
/// let _ = b.gen::<u64>(); // independent stream
/// ```
#[must_use]
pub fn stream_rng(run_seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(run_seed ^ splitmix64(stream)))
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn reproducible_per_stream() {
        let xs: Vec<u64> = (0..8)
            .map(|_| 0u64)
            .scan(stream_rng(1, 2), |r, _| Some(r.gen()))
            .collect();
        let ys: Vec<u64> = (0..8)
            .map(|_| 0u64)
            .scan(stream_rng(1, 2), |r, _| Some(r.gen()))
            .collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_streams_differ() {
        let mut a = stream_rng(1, 0);
        let mut b = stream_rng(1, 1);
        let va: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = stream_rng(1, 0);
        let mut b = stream_rng(2, 0);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn splitmix_avalanche() {
        // Flipping one input bit flips roughly half the output bits.
        let base = splitmix64(0x1234_5678);
        let flipped = splitmix64(0x1234_5679);
        let differing = (base ^ flipped).count_ones();
        assert!((16..=48).contains(&differing), "{differing}");
    }
}
