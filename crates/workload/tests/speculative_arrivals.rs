//! Property-based proof that the speculative block arrival pipeline is
//! bit-identical to the scalar gap recurrence under random parameters.
//!
//! The unit tests in `arrival.rs` pin a handful of configurations; these
//! properties let proptest roam the (gap law, rate, q, ξ, seed) space and
//! assert the three invariants the block driver rests on:
//!
//! 1. **Prefix-sum carry exactness** — batch times produced across many
//!    speculative blocks match the scalar `clock += gap` recurrence bit
//!    for bit, including the carried clock at every block boundary.
//! 2. **Horizon-trim determinism** — the block size (`min_keys`) is
//!    invisible: any block size yields the same kept batches, the same
//!    final clock, and the same RNG stream position.
//! 3. **RNG-position equivalence** — after the horizon crossing the RNG
//!    sits exactly where the scalar loop would leave it, so everything
//!    downstream of arrival generation is unperturbed.
//!
//! Every run also reports the batch that crossed the horizon
//! ([`ArrivalScratch::crossing_size`]), which must be the scalar loop's.

use memlat_dist::{
    Deterministic, Exponential, Gamma, GapLaw, GeneralizedPareto, Hyperexponential, Uniform,
};
use memlat_workload::{ArrivalScratch, BatchArrivals};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};

/// One of the six gap laws at batch rate `(1 − q)·rate`: the two with a
/// bits kernel (GP, exponential) stage speculatively, the other four draw
/// in place.
fn law(rate: f64, q: f64, xi: f64, kind: u8) -> GapLaw {
    let batch_rate = (1.0 - q) * rate;
    let mean = 1.0 / batch_rate;
    match kind {
        0 => GapLaw::from(GeneralizedPareto::facebook(xi, batch_rate).unwrap()),
        1 => GapLaw::from(Exponential::new(batch_rate).unwrap()),
        2 => GapLaw::from(Deterministic::new(mean).unwrap()),
        3 => GapLaw::from(Gamma::erlang(4, mean).unwrap()),
        4 => GapLaw::from(Uniform::with_mean(mean).unwrap()),
        _ => GapLaw::from(Hyperexponential::with_mean_scv(mean, 4.0).unwrap()),
    }
}

/// What one run to the horizon leaves behind: the kept `(time, size)`
/// batches, the banked key bits, the final clock, the size of the batch
/// that crossed the horizon, and the RNG's next draw.
type Run = (Vec<(f64, u64)>, Vec<u64>, f64, u64, u64);

/// The scalar reference: `next_batch_with` until the horizon, with
/// `key_draws` raw u64s banked per key in stream order.
fn scalar_reference(law: &GapLaw, q: f64, horizon: f64, key_draws: usize, seed: u64) -> Run {
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
        for _ in 0..b as usize * key_draws {
            key_bits.push(rng.next_u64());
        }
    };
    (batches, key_bits, s.clock(), crossing, rng.next_u64())
}

/// Drives the speculative pipeline to exhaustion at one block size.
fn speculative_run(
    law: &GapLaw,
    q: f64,
    horizon: f64,
    min_keys: usize,
    key_draws: usize,
    seed: u64,
) -> Run {
    let mut s = BatchArrivals::new(law.clone(), q).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut scratch = ArrivalScratch::new();
    let mut batches = Vec::new();
    let mut key_bits = Vec::new();
    let crossing = loop {
        let done = s.fill_block_speculative(
            &mut rng,
            horizon,
            min_keys,
            key_draws,
            &mut scratch,
            |b, r| {
                for _ in 0..b as usize * key_draws {
                    key_bits.push(r.next_u64());
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
        if done {
            break scratch
                .crossing_size()
                .expect("a crossing fill reports its batch");
        }
        assert_eq!(scratch.crossing_size(), None, "no crossing, no batch");
    };
    // Key bits banked for the speculated-past-horizon batches are junk by
    // construction — the caller truncates to the kept keys, exactly as
    // the cluster simulator's block loop does.
    let kept: usize = batches.iter().map(|&(_, b)| b as usize).sum();
    key_bits.truncate(kept * key_draws);
    (batches, key_bits, s.clock(), crossing, rng.next_u64())
}

fn assert_runs_match(a: &Run, b: &Run, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.0.len(), b.0.len(), "{}: batch count", label);
    for (i, ((ta, ba), (tb, bb))) in a.0.iter().zip(&b.0).enumerate() {
        prop_assert_eq!(ta.to_bits(), tb.to_bits(), "{}: batch {} time", label, i);
        prop_assert_eq!(ba, bb, "{}: batch {} size", label, i);
    }
    prop_assert_eq!(&a.1, &b.1, "{}: key bits", label);
    prop_assert_eq!(a.2.to_bits(), b.2.to_bits(), "{}: final clock", label);
    prop_assert_eq!(a.3, b.3, "{}: crossing batch size", label);
    prop_assert_eq!(a.4, b.4, "{}: RNG position", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(144))]

    /// Invariants 1 and 3: the speculative pipeline reproduces the scalar
    /// recurrence bit for bit — times, sizes, interleaved key draws, the
    /// carried clock, and the RNG stream position after the crossing.
    #[test]
    fn speculative_pipeline_is_bit_identical_to_scalar(
        rate in 2_000.0f64..30_000.0,
        q in 0.0f64..0.5,
        xi in 0.0f64..0.7,
        kind in 0u8..6,
        key_draws in 0usize..3,
        min_keys in 1usize..512,
        seed in 0u64..10_000,
    ) {
        let law = law(rate, q, xi, kind);
        let horizon = 0.01;
        let scalar = scalar_reference(&law, q, horizon, key_draws, seed);
        prop_assume!(!scalar.0.is_empty());
        let spec = speculative_run(&law, q, horizon, min_keys, key_draws, seed);
        assert_runs_match(&scalar, &spec, "vs scalar")?;
    }

    /// Invariant 2: the block size is invisible — every `min_keys`,
    /// including the degenerate one-batch-at-a-time block and blocks far
    /// larger than the horizon holds, yields the same kept batches, key
    /// bits, clock, and RNG position.
    #[test]
    fn horizon_trim_is_deterministic_across_block_sizes(
        rate in 2_000.0f64..30_000.0,
        q in 0.0f64..0.5,
        xi in 0.0f64..0.7,
        kind in 0u8..6,
        key_draws in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let law = law(rate, q, xi, kind);
        let horizon = 0.01;
        let reference = speculative_run(&law, q, horizon, 1, key_draws, seed);
        for min_keys in [37usize, 256, 1024] {
            let run = speculative_run(&law, q, horizon, min_keys, key_draws, seed);
            assert_runs_match(&reference, &run, &format!("block {min_keys}"))?;
        }
    }

    /// The crossing batch a fill reports is the scalar loop's: the size
    /// of the batch whose time first reaches the horizon, for every gap
    /// law, at q = 0 (a batch size draws nothing), 0.1 and 0.45. A
    /// horizon of a few gaps puts the crossing in the first fill at the
    /// larger block sizes and after several fills at the smaller ones.
    #[test]
    fn crossing_batch_matches_scalar(
        rate in 2_000.0f64..30_000.0,
        q in prop_oneof![Just(0.0f64), Just(0.1), Just(0.45)],
        xi in 0.0f64..0.7,
        kind in 0u8..6,
        key_draws in 0usize..3,
        horizon_gaps in 0.0f64..64.0,
        seed in 0u64..10_000,
    ) {
        let law = law(rate, q, xi, kind);
        let horizon = horizon_gaps / ((1.0 - q) * rate);
        let scalar = scalar_reference(&law, q, horizon, key_draws, seed);
        for min_keys in [1usize, 7, 1024] {
            let run = speculative_run(&law, q, horizon, min_keys, key_draws, seed);
            assert_runs_match(&scalar, &run, &format!("block {min_keys}"))?;
        }
    }
}
