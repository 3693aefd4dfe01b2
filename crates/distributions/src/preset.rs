//! The closed enum of preset gap laws — static dispatch for the
//! simulator's hot path.
//!
//! The discrete-event inner loop draws one inter-batch gap per batch;
//! through `Box<dyn Continuous>` every draw pays two virtual calls (the
//! `sample` itself and the RNG it forwards to). [`GapLaw`] closes the
//! set of arrival laws the model actually uses so the match (and the
//! inverse-CDF math behind it) inlines into the loop, and the generic
//! [`GapLaw::sample_with`] monomorphizes the RNG as well. Draw-for-draw
//! the samples are **bit-identical** to the boxed path: each variant
//! delegates to the same inherent sampler its `Continuous` impl uses.
//!
//! # Examples
//!
//! ```
//! use memlat_dist::{Continuous, Exponential, GapLaw};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), memlat_dist::ParamError> {
//! let law = GapLaw::from(Exponential::new(1_000.0)?);
//! assert!((law.mean() - 1e-3).abs() < 1e-15);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! assert!(law.sample_with(&mut rng) > 0.0);
//! # Ok(())
//! # }
//! ```

use rand::RngCore;

use crate::{
    Continuous, Deterministic, Exponential, Gamma, GeneralizedPareto, Hyperexponential, Uniform,
};

/// A closed set of inter-batch gap laws with inlined, monomorphic
/// sampling.
///
/// Covers every shape the model layer's `ArrivalPattern` materializes:
/// exponential (Poisson), Generalized Pareto (Facebook), deterministic,
/// Erlang (via [`Gamma`]), uniform, and hyperexponential. For anything
/// outside this set, keep using `Box<dyn Continuous>`.
#[derive(Debug, Clone)]
pub enum GapLaw {
    /// Exponential gaps (Poisson arrivals).
    Exponential(Exponential),
    /// Generalized Pareto gaps (the Facebook workload).
    GeneralizedPareto(GeneralizedPareto),
    /// Deterministic gaps (perfect pacing).
    Deterministic(Deterministic),
    /// Erlang-`k` gaps (a [`Gamma`] with integer shape).
    Erlang(Gamma),
    /// Uniform gaps.
    Uniform(Uniform),
    /// Two-phase hyperexponential gaps.
    Hyperexponential(Hyperexponential),
}

impl GapLaw {
    /// Draws one gap with a concrete RNG type: a static-dispatch match
    /// over the closed set, bit-identical to the corresponding
    /// [`Continuous::sample`].
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            GapLaw::Exponential(d) => d.sample_with(rng),
            GapLaw::GeneralizedPareto(d) => d.sample_with(rng),
            GapLaw::Deterministic(d) => d.sample_with(rng),
            GapLaw::Erlang(d) => d.sample_with(rng),
            GapLaw::Uniform(d) => d.sample_with(rng),
            GapLaw::Hyperexponential(d) => d.sample_with(rng),
        }
    }

    /// Whether this law draws exactly one raw `next_u64` per gap **and**
    /// has a block bits-kernel ([`GapLaw::gaps_from_bits`]), so the block
    /// arrival driver can bank its raw draws and stage speculatively. It
    /// draws the other laws (deterministic, Erlang, uniform,
    /// hyperexponential) in place instead.
    #[must_use]
    pub fn has_bits_kernel(&self) -> bool {
        matches!(self, GapLaw::Exponential(_) | GapLaw::GeneralizedPareto(_))
    }

    /// Appends one gap per raw `next_u64` draw in `bits` onto `out`,
    /// bit-identical to feeding the same bits through
    /// [`GapLaw::sample_with`] draw for draw. The transform runs as a
    /// slice scan through the SIMD-dispatched kernels.
    ///
    /// # Panics
    ///
    /// Panics when [`GapLaw::has_bits_kernel`] is false — callers gate on
    /// it before banking bits.
    pub fn gaps_from_bits(&self, bits: &[u64], out: &mut Vec<f64>) {
        match self {
            GapLaw::Exponential(d) => crate::simd::exp_from_bits(bits, d.rate(), out),
            GapLaw::GeneralizedPareto(d) => d.fill_from_bits(bits, out),
            _ => panic!("gaps_from_bits needs a single-draw law with a bits kernel"),
        }
    }

    /// The inner law as a `&dyn Continuous` (for solvers that take the
    /// trait object).
    #[must_use]
    fn as_dyn(&self) -> &dyn Continuous {
        match self {
            GapLaw::Exponential(d) => d,
            GapLaw::GeneralizedPareto(d) => d,
            GapLaw::Deterministic(d) => d,
            GapLaw::Erlang(d) => d,
            GapLaw::Uniform(d) => d,
            GapLaw::Hyperexponential(d) => d,
        }
    }
}

impl Continuous for GapLaw {
    fn cdf(&self, t: f64) -> f64 {
        self.as_dyn().cdf(t)
    }

    fn mean(&self) -> f64 {
        self.as_dyn().mean()
    }

    fn variance(&self) -> f64 {
        self.as_dyn().variance()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn survival(&self, t: f64) -> f64 {
        self.as_dyn().survival(t)
    }

    fn laplace(&self, s: f64) -> f64 {
        self.as_dyn().laplace(s)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.as_dyn().quantile(p)
    }
}

impl From<Exponential> for GapLaw {
    fn from(d: Exponential) -> Self {
        GapLaw::Exponential(d)
    }
}

impl From<GeneralizedPareto> for GapLaw {
    fn from(d: GeneralizedPareto) -> Self {
        GapLaw::GeneralizedPareto(d)
    }
}

impl From<Deterministic> for GapLaw {
    fn from(d: Deterministic) -> Self {
        GapLaw::Deterministic(d)
    }
}

impl From<Gamma> for GapLaw {
    fn from(d: Gamma) -> Self {
        GapLaw::Erlang(d)
    }
}

impl From<Uniform> for GapLaw {
    fn from(d: Uniform) -> Self {
        GapLaw::Uniform(d)
    }
}

impl From<Hyperexponential> for GapLaw {
    fn from(d: Hyperexponential) -> Self {
        GapLaw::Hyperexponential(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn laws() -> Vec<GapLaw> {
        vec![
            GapLaw::from(Exponential::new(1_000.0).unwrap()),
            GapLaw::from(GeneralizedPareto::facebook(0.15, 56_250.0).unwrap()),
            GapLaw::from(Deterministic::new(1e-3).unwrap()),
            GapLaw::from(Gamma::erlang(4, 1e-3).unwrap()),
            GapLaw::from(Uniform::with_mean(1e-3).unwrap()),
            GapLaw::from(Hyperexponential::with_mean_scv(1e-3, 4.0).unwrap()),
        ]
    }

    #[test]
    fn enum_sampling_is_bit_identical_to_boxed() {
        for law in laws() {
            let boxed: Box<dyn Continuous> = Box::new(law.clone());
            let mut a = rand::rngs::StdRng::seed_from_u64(0xabcd);
            let mut b = rand::rngs::StdRng::seed_from_u64(0xabcd);
            for _ in 0..2_000 {
                let x = law.sample_with(&mut a);
                let y = boxed.sample(&mut b);
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn bits_kernel_gate_matches_draw_shape() {
        let mut laned = 0;
        for law in laws() {
            if law.has_bits_kernel() {
                laned += 1;
                // One raw u64 per draw: feeding banked bits through the
                // lane kernel must reproduce sample_with bit for bit.
                use rand::RngCore;
                let mut bits_rng = rand::rngs::StdRng::seed_from_u64(0xbeef);
                let bits: Vec<u64> = (0..500).map(|_| bits_rng.next_u64()).collect();
                let mut lane = Vec::new();
                law.gaps_from_bits(&bits, &mut lane);
                let mut draw_rng = rand::rngs::StdRng::seed_from_u64(0xbeef);
                for (i, &x) in lane.iter().enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        law.sample_with(&mut draw_rng).to_bits(),
                        "draw {i}"
                    );
                }
            }
        }
        // Exponential and GeneralizedPareto — the arrival hot path's laws.
        assert_eq!(laned, 2);
    }

    #[test]
    #[should_panic(expected = "bits kernel")]
    fn gaps_from_bits_rejects_multi_draw_laws() {
        let law = GapLaw::from(Hyperexponential::with_mean_scv(1e-3, 4.0).unwrap());
        law.gaps_from_bits(&[1, 2, 3], &mut Vec::new());
    }

    #[test]
    fn trait_surface_forwards_to_inner_law() {
        for law in laws() {
            let inner = law.as_dyn();
            assert_eq!(law.mean().to_bits(), inner.mean().to_bits());
            assert_eq!(law.variance().to_bits(), inner.variance().to_bits());
            for t in [0.0, 1e-4, 1e-3, 1e-2] {
                assert_eq!(law.cdf(t).to_bits(), inner.cdf(t).to_bits());
                assert_eq!(law.survival(t).to_bits(), inner.survival(t).to_bits());
            }
            for s in [0.0, 10.0, 1e4] {
                assert_eq!(law.laplace(s).to_bits(), inner.laplace(s).to_bits());
            }
            for p in [0.1, 0.5, 0.9] {
                assert_eq!(law.quantile(p).to_bits(), inner.quantile(p).to_bits());
            }
        }
    }

    #[test]
    fn boxed_box_forwards_closed_forms() {
        // The blanket Box<T: Continuous> impl must hit the inner type's
        // overridden laplace, not the numeric default.
        let exp = Exponential::new(2.0).unwrap();
        let boxed: Box<dyn Continuous> = Box::new(exp);
        assert_eq!(boxed.laplace(1.0).to_bits(), (2.0f64 / 3.0).to_bits());
    }
}
