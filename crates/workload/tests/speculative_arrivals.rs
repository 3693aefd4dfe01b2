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
//!
//! A last test counts the work the driver spends to keep those
//! invariants on the M = 10 000 server shape, where every phase is one
//! fill that crosses its horizon.

use memlat_dist::{
    Deterministic, Exponential, Gamma, GapLaw, GeneralizedPareto, Hyperexponential, Uniform,
};
use memlat_workload::{ArrivalScratch, BatchArrivals};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use std::cell::Cell;
use std::rc::Rc;

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

/// An RNG that counts every `next_u64` into a cell its clones share, so
/// the count survives the driver's snapshot and rewind: it counts the
/// staged draws, the discarded ones and the replayed ones alike.
#[derive(Clone)]
struct SharedCount {
    rng: rand::rngs::StdRng,
    draws: Rc<Cell<u64>>,
}

impl RngCore for SharedCount {
    fn next_u64(&mut self) -> u64 {
        self.draws.set(self.draws.get() + 1);
        self.rng.next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// One server of the M = 10 000 fixed-ratio shape (ρ = 0.70 at
/// μ = 80 000/s, so 56 000 keys/s): a warm-up phase to 2 ms with one
/// draw per key (the service uniform), then a measured phase to 10 ms
/// with two (service and miss uniforms), in blocks of 1 024 keys. The
/// batch that crosses the warm-up boundary draws its keys as measured
/// keys, as the cluster simulator's fixed-ratio lanes do. Returns the
/// raw draws the scalar loop makes and the draws the speculative driver
/// makes, and checks that both leave the stream at the same position.
fn m10k_server_draws(seed: u64) -> (u64, u64) {
    const Q: f64 = 0.1;
    const BLOCK: usize = 1024;
    const WARMUP: f64 = 0.002;
    const HORIZON: f64 = 0.010;
    let law = GapLaw::from(GeneralizedPareto::facebook(0.15, (1.0 - Q) * 56_000.0).unwrap());
    let counted = |draws: &Rc<Cell<u64>>| SharedCount {
        rng: rand::rngs::StdRng::seed_from_u64(seed),
        draws: Rc::clone(draws),
    };
    let draw = |rng: &mut SharedCount, n: u64| {
        for _ in 0..n {
            rng.next_u64();
        }
    };

    let scalar_draws = Rc::new(Cell::new(0));
    let mut rng = counted(&scalar_draws);
    let mut s = BatchArrivals::new(law.clone(), Q).unwrap();
    let mut next = s.next_batch_with(&mut rng);
    while next.0 < WARMUP {
        draw(&mut rng, next.1);
        next = s.next_batch_with(&mut rng);
    }
    while next.0 < HORIZON {
        draw(&mut rng, 2 * next.1);
        next = s.next_batch_with(&mut rng);
    }
    let scalar_next = rng.next_u64();

    let spec_draws = Rc::new(Cell::new(0));
    let mut rng = counted(&spec_draws);
    let mut s = BatchArrivals::new(law, Q).unwrap();
    let mut scratch = ArrivalScratch::new();
    let mut fill = |rng: &mut SharedCount, horizon: f64, min_keys: usize, key_draws: usize| {
        let done =
            s.fill_block_speculative(rng, horizon, min_keys, key_draws, &mut scratch, |b, r| {
                draw(r, b * key_draws as u64);
            });
        (done, s.clock(), scratch.crossing_size())
    };
    let (clock, crossing) = loop {
        if let (true, clock, crossing) = fill(&mut rng, WARMUP, BLOCK, 1) {
            break (clock, crossing.expect("a crossing fill reports its batch"));
        }
    };
    if clock < HORIZON {
        draw(&mut rng, 2 * crossing);
        let mut min_keys = BLOCK - crossing as usize;
        while !fill(&mut rng, HORIZON, min_keys, 2).0 {
            min_keys = BLOCK;
        }
    }
    assert_eq!(rng.next_u64(), scalar_next, "seed {seed}: stream position");
    (scalar_draws.get(), spec_draws.get())
}

/// The staging cap's cost, counted: over 64 seeds of the M = 10 000
/// server shape, the speculative driver makes at most 1.65× the scalar
/// loop's raw draws (staged, discarded and replayed draws together).
/// With the cap at the expected batch count plus one it reads 1.53×:
/// about half the phases cross in their first fill and replay its kept
/// draws once, and the rest stop just short and end in one or more
/// short fills. A cap of `e + 2√e + 8` reads 2.10×: it stages ~2√e + 8
/// batches past the crossing in every phase, then replays every kept
/// draw.
#[test]
fn m10k_shape_draws_stay_near_the_scalar_count() {
    let (mut scalar, mut spec) = (0u64, 0u64);
    for seed in 0..64 {
        let (a, b) = m10k_server_draws(seed);
        scalar += a;
        spec += b;
    }
    let ratio = spec as f64 / scalar as f64;
    println!("raw draws: scalar {scalar}, speculative {spec}, ratio {ratio:.3}");
    assert!(ratio <= 1.65, "speculative/scalar draw ratio {ratio:.3}");
}
