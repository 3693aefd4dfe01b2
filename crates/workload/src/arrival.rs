//! Batch arrival processes — the `GI^X` part of the paper's `GI^X/M/1`.

use memlat_dist::{Continuous, Discrete, GapLaw, GeometricBatch, ParamError};
use rand::RngCore;

/// Batches a speculative fill may stage beyond the expected count left
/// before the horizon (see [`BatchArrivals::fill_block_speculative`]).
/// At least one, so every fill stages a batch.
const HORIZON_SLACK: usize = 1;

/// A stream of key *batches*: general i.i.d. inter-batch gaps and
/// geometric batch sizes.
///
/// Matches §3 of the paper: keys arriving within a tiny window (< 1 µs in
/// the Facebook measurements) are modeled as one batch whose size follows
/// `P{X = n} = q^{n-1}(1−q)`.
///
/// The process is stateful (it tracks the current clock) and consumes an
/// external RNG so multiple servers can run independent streams from
/// per-stream RNGs.
///
/// The gap law is the closed [`GapLaw`] enum, so every draw is a static
/// match and the sampler inlines into the simulator's loop.
///
/// # Examples
///
/// ```
/// use memlat_dist::GeneralizedPareto;
/// use memlat_workload::BatchArrivals;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let gaps = GeneralizedPareto::facebook(0.15, 56_250.0)?;
/// let mut s = BatchArrivals::new(gaps, 0.1)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let (t1, _) = s.next_batch_with(&mut rng);
/// let (t2, _) = s.next_batch_with(&mut rng);
/// assert!(t2 > t1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchArrivals {
    gaps: GapLaw,
    batch: GeometricBatch,
    clock: f64,
}

/// Reusable lanes for the speculative block arrival pipeline
/// ([`BatchArrivals::fill_block_speculative`]): raw gap bits banked in
/// scalar draw order, their transformed gaps, and the kept batches'
/// absolute times and sizes. Holding one per worker lane (e.g. inside the
/// cluster simulator's block scratch) amortizes the allocations across a
/// whole sweep.
#[derive(Debug, Default)]
pub struct ArrivalScratch {
    /// Raw gap-draw bits, one `next_u64` per staged batch (bits-kernel
    /// laws only).
    gap_bits: Vec<u64>,
    /// Gaps transformed from `gap_bits` via the lane kernels.
    gaps: Vec<f64>,
    /// Absolute arrival times of the kept (pre-horizon) batches.
    times: Vec<f64>,
    /// Batch sizes, parallel to `times` after the horizon trim.
    sizes: Vec<u64>,
    /// Size of the batch that crossed the horizon, when this fill
    /// crossed it.
    crossing: Option<u64>,
}

impl ArrivalScratch {
    /// Creates empty lanes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn clear(&mut self) {
        self.gap_bits.clear();
        self.gaps.clear();
        self.times.clear();
        self.sizes.clear();
        self.crossing = None;
    }

    /// Arrival times of the kept batches, in arrival order.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Batch sizes of the kept batches, parallel to [`Self::times`].
    #[must_use]
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Size of the batch that crossed the horizon, when the last fill
    /// crossed it (`None` otherwise). Its gap and size were drawn, its
    /// keys were not; its time is [`BatchArrivals::clock`].
    #[must_use]
    pub fn crossing_size(&self) -> Option<u64> {
        self.crossing
    }

    /// Total keys across the kept batches.
    #[must_use]
    pub fn keys(&self) -> usize {
        self.sizes.iter().map(|&b| b as usize).sum()
    }
}

impl BatchArrivals {
    /// Creates a batch process from an inter-batch gap law and the
    /// concurrency probability `q`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `q ∉ [0, 1)`.
    pub fn new(gaps: impl Into<GapLaw>, q: f64) -> Result<Self, ParamError> {
        Ok(Self {
            gaps: gaps.into(),
            batch: GeometricBatch::new(q)?,
            clock: 0.0,
        })
    }

    /// Implied per-key arrival rate `λ = E[X]/E[T_X]`.
    #[must_use]
    pub fn key_rate(&self) -> f64 {
        self.batch.mean() / self.gaps.mean()
    }

    /// The concurrency probability `q`.
    #[must_use]
    pub fn concurrency(&self) -> f64 {
        self.batch.q()
    }

    /// Current clock (time of the last emitted batch).
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advances the stream: returns the next batch's arrival time and its
    /// size (≥ 1). The gap draw is a static match over [`GapLaw`] and the
    /// batch draw is the inlined geometric sampler.
    #[inline]
    pub fn next_batch_with<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> (f64, u64) {
        self.clock += self.gaps.sample_with(rng);
        (self.clock, self.batch.sample_with(rng))
    }

    /// Generates whole batches until at least `min_keys` keys are staged
    /// (batches are never split) or the horizon is crossed — the block
    /// driver of every gap law.
    ///
    /// `draw_keys(size, rng)` runs once per staged batch, in stream
    /// order, so callers can bank their own per-key draws; it consumes
    /// at least `key_draws` raw `u64`s per key, and only `next_u64`
    /// draws. When the horizon is crossed, callers truncate their key
    /// lanes to the kept keys.
    ///
    /// Laws with a bits kernel (exponential, Generalized Pareto — see
    /// [`GapLaw::has_bits_kernel`]) stage speculatively: raw gap bits are
    /// banked in scalar draw order and transformed to gaps as one slice
    /// scan through the SIMD-dispatched [`GapLaw::gaps_from_bits`]
    /// kernel, and absolute arrival times come from a deterministic
    /// in-block prefix sum seeded with the carried clock, so every add
    /// happens in the same order on the same values as the scalar
    /// recurrence. The horizon boundary is handled by over-generation and
    /// a deterministic trim: when batch `k`'s time lands at or past
    /// `horizon`, batches `k..` are discarded and the RNG is rewound to
    /// the snapshot taken on entry, then fast-forwarded by exactly the
    /// draws a scalar [`next_batch_with`](Self::next_batch_with) loop
    /// would have consumed — gap and batch-size draws for the kept
    /// batches *and* the terminal crossing batch, plus `key_draws` per
    /// kept key.
    ///
    /// `key_draws` is all the replay knows of the keys. A caller whose
    /// keys draw a variable count (a miss decision that draws a value
    /// size only on a miss, a rejection sampler) passes the fixed part
    /// and tops up the rest: after a crossing that discarded staged
    /// batches (`draw_keys` ran for more batches than
    /// [`ArrivalScratch::sizes`] keeps), it advances the RNG by exactly
    /// the kept keys' draws beyond `key_draws`, for example counted
    /// through an RNG adapter inside `draw_keys`. Side effects of the
    /// discarded batches' `draw_keys` calls are the caller's to undo.
    ///
    /// The other laws (deterministic, Erlang, uniform, hyperexponential)
    /// draw each gap in place through `next_batch_with` and test the
    /// horizon before drawing the batch's keys, so nothing is
    /// over-generated and nothing is rewound.
    ///
    /// Either way the RNG stream position and batch counts match the
    /// scalar reference exactly, which is what keeps block size invisible
    /// in the output. Returns `true` when the horizon was crossed (the
    /// stream is exhausted); the kept batches are in
    /// [`ArrivalScratch::times`]/[`ArrivalScratch::sizes`], the clock
    /// is left exactly where the scalar loop would leave it (the crossing
    /// batch's time), and the crossing batch's size is
    /// [`ArrivalScratch::crossing_size`] — so a caller that runs one
    /// phase up to an inner horizon can seed the next phase with that
    /// batch.
    pub fn fill_block_speculative<R, F>(
        &mut self,
        rng: &mut R,
        horizon: f64,
        min_keys: usize,
        key_draws: usize,
        scratch: &mut ArrivalScratch,
        mut draw_keys: F,
    ) -> bool
    where
        R: RngCore + Clone,
        F: FnMut(u64, &mut R),
    {
        scratch.clear();
        let mut staged = 0usize;
        if !self.gaps.has_bits_kernel() {
            while staged < min_keys.max(1) {
                let (t, b) = self.next_batch_with(rng);
                if t >= horizon {
                    scratch.crossing = Some(b);
                    return true;
                }
                scratch.times.push(t);
                scratch.sizes.push(b);
                draw_keys(b, rng);
                staged += b as usize;
            }
            return false;
        }
        let snapshot = rng.clone();
        let batch = self.batch;
        // Every batch staged past the crossing is waste: its draws are
        // banked, its gap transformed, and then it is discarded and the
        // kept draws replayed from the snapshot. So stage at most the
        // expected count `e` of batches left before the horizon plus
        // `HORIZON_SLACK`. A fill that stops short of the crossing keeps
        // everything it staged and needs no rewind; the caller fills
        // again from the closer clock, and that fill's `e` is small. Any
        // slack that scales with `e` (`2√e` or a fraction of `e`) stages
        // that many batches past the crossing on every phase that fits
        // in one fill, as every phase of an M = 10k run does. The cap
        // only shrinks the effective block size, which the block-size
        // invariance tests prove invisible in the output.
        let mean_gap = self.gaps.mean();
        let remaining = (horizon - self.clock).max(0.0);
        let cap = if mean_gap > 0.0 && mean_gap.is_finite() {
            ((remaining / mean_gap) as usize).saturating_add(HORIZON_SLACK)
        } else {
            usize::MAX
        };
        while staged < min_keys.max(1) && scratch.sizes.len() < cap {
            scratch.gap_bits.push(rng.next_u64());
            let b = batch.sample_with(rng);
            scratch.sizes.push(b);
            draw_keys(b, rng);
            staged += b as usize;
        }
        self.gaps
            .gaps_from_bits(&scratch.gap_bits, &mut scratch.gaps);
        let mut clock = self.clock;
        let mut cut = None;
        for (i, &g) in scratch.gaps.iter().enumerate() {
            clock += g;
            if clock >= horizon {
                cut = Some(i);
                break;
            }
            scratch.times.push(clock);
        }
        self.clock = clock;
        let Some(cut) = cut else {
            return false;
        };
        scratch.crossing = Some(scratch.sizes[cut]);
        scratch.sizes.truncate(cut);
        let kept_keys: usize = scratch.sizes.iter().map(|&b| b as usize).sum();
        let batch_draws = usize::from(batch.q() > 0.0);
        let replay = (cut + 1) * (1 + batch_draws) + kept_keys * key_draws;
        *rng = snapshot;
        for _ in 0..replay {
            rng.next_u64();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlat_dist::{
        Deterministic, Exponential, Gamma, GeneralizedPareto, Hyperexponential, Uniform,
    };
    use rand::SeedableRng;

    #[test]
    fn key_rate_accounts_for_batching() {
        let gaps = Exponential::new(900.0).unwrap();
        let s = BatchArrivals::new(gaps, 0.1).unwrap();
        // batch rate 900, mean batch 1/0.9 ⇒ key rate 1000.
        assert!((s.key_rate() - 1000.0).abs() < 1e-9);
        assert_eq!(s.concurrency(), 0.1);
    }

    #[test]
    fn clock_is_monotone() {
        let gaps = GeneralizedPareto::facebook(0.5, 100.0).unwrap();
        let mut s = BatchArrivals::new(gaps, 0.2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut prev = 0.0;
        for _ in 0..1000 {
            let (t, b) = s.next_batch_with(&mut rng);
            assert!(t > prev);
            assert!(b >= 1);
            prev = t;
        }
    }

    #[test]
    fn empirical_key_rate_matches() {
        let gaps = GeneralizedPareto::facebook(0.15, 56_250.0).unwrap();
        let mut s = BatchArrivals::new(gaps, 0.1).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let horizon = 20.0;
        let mut keys = 0;
        loop {
            let (t, b) = s.next_batch_with(&mut rng);
            if t >= horizon {
                break;
            }
            keys += b;
        }
        let rate = keys as f64 / horizon;
        assert!((rate / 62_500.0 - 1.0).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn deterministic_gaps_are_even() {
        let gaps = Deterministic::new(0.5).unwrap();
        let mut s = BatchArrivals::new(gaps, 0.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (t1, b1) = s.next_batch_with(&mut rng);
        let (t2, b2) = s.next_batch_with(&mut rng);
        assert_eq!((t1, t2), (0.5, 1.0));
        assert_eq!((b1, b2), (1, 1));
    }

    #[test]
    fn rejects_bad_q() {
        let gaps = Exponential::new(10.0).unwrap();
        assert!(BatchArrivals::new(gaps, 1.0).is_err());
    }

    /// Scalar reference for the speculative driver: the exact
    /// `next_batch_with` + per-key-draw loop the block path must match.
    /// Returns the kept batches, the key bits, the final clock, the
    /// crossing batch's size and the RNG's next draw.
    fn scalar_reference(
        law: &GapLaw,
        q: f64,
        horizon: f64,
        key_draws: usize,
        seed: u64,
    ) -> (Vec<(f64, u64)>, Vec<u64>, f64, u64, u64) {
        let mut s = BatchArrivals::new(law.clone(), q).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut batches = Vec::new();
        let mut key_bits = Vec::new();
        let crossing = loop {
            let (t, b) = s.next_batch_with(&mut rng);
            if t >= horizon {
                break b;
            }
            batches.push((t, b));
            for _ in 0..b * key_draws as u64 {
                key_bits.push(rng.next_u64());
            }
        };
        let next = rng.next_u64();
        (batches, key_bits, s.clock(), crossing, next)
    }

    #[test]
    fn speculative_blocks_match_scalar_reference() {
        use rand::RngCore;
        let laws = [
            GapLaw::from(GeneralizedPareto::facebook(0.15, 56_250.0).unwrap()),
            GapLaw::from(GeneralizedPareto::facebook(0.0, 56_250.0).unwrap()),
            GapLaw::from(Exponential::new(56_250.0).unwrap()),
            GapLaw::from(Deterministic::new(1.0 / 56_250.0).unwrap()),
            GapLaw::from(Gamma::erlang(4, 1.0 / 56_250.0).unwrap()),
            GapLaw::from(Uniform::with_mean(1.0 / 56_250.0).unwrap()),
            GapLaw::from(Hyperexponential::with_mean_scv(1.0 / 56_250.0, 4.0).unwrap()),
        ];
        let horizon = 0.02;
        for law in &laws {
            // Crossing batches larger than one key, so the crossing-size
            // check can tell the crossing batch from its neighbours.
            let mut wide_crossings = 0;
            for &(q, key_draws) in &[(0.1, 2usize), (0.0, 1usize), (0.45, 1usize)] {
                for seed in 99..107 {
                    let (want_batches, want_bits, want_clock, want_crossing, want_next) =
                        scalar_reference(law, q, horizon, key_draws, seed);
                    wide_crossings += usize::from(want_crossing > 1);
                    for min_keys in [1usize, 37, 256, 1024] {
                        let mut s = BatchArrivals::new(law.clone(), q).unwrap();
                        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                        let mut scratch = ArrivalScratch::new();
                        let mut batches = Vec::new();
                        let mut key_bits = Vec::new();
                        loop {
                            let crossed = s.fill_block_speculative(
                                &mut rng,
                                horizon,
                                min_keys,
                                key_draws,
                                &mut scratch,
                                |b, rng| {
                                    for _ in 0..b * key_draws as u64 {
                                        key_bits.push(rng.next_u64());
                                    }
                                },
                            );
                            batches.extend(
                                scratch
                                    .times()
                                    .iter()
                                    .copied()
                                    .zip(scratch.sizes().iter().copied()),
                            );
                            if crossed {
                                assert_eq!(
                                    scratch.crossing_size(),
                                    Some(want_crossing),
                                    "seed={seed} min_keys={min_keys}: crossing batch"
                                );
                                // Trim the speculative tail of the key draws.
                                let kept: usize = batches.iter().map(|&(_, b)| b as usize).sum();
                                key_bits.truncate(kept * key_draws);
                                break;
                            }
                            assert_eq!(
                                scratch.crossing_size(),
                                None,
                                "seed={seed} min_keys={min_keys}"
                            );
                        }
                        assert_eq!(
                            batches.len(),
                            want_batches.len(),
                            "seed={seed} min_keys={min_keys}"
                        );
                        for (a, w) in batches.iter().zip(&want_batches) {
                            assert_eq!(
                                a.0.to_bits(),
                                w.0.to_bits(),
                                "seed={seed} min_keys={min_keys}"
                            );
                            assert_eq!(a.1, w.1, "seed={seed} min_keys={min_keys}");
                        }
                        assert_eq!(key_bits, want_bits, "seed={seed} min_keys={min_keys}");
                        assert_eq!(
                            s.clock().to_bits(),
                            want_clock.to_bits(),
                            "seed={seed} min_keys={min_keys}"
                        );
                        assert_eq!(rng.next_u64(), want_next, "seed={seed} min_keys={min_keys}");
                    }
                }
            }
            assert!(
                wide_crossings > 0,
                "{law:?}: every crossing batch had one key"
            );
        }
    }
}
