//! Property-based tests for the measurement substrate.

use memlat_stats::{ConfidenceInterval, Ecdf, QuantileSketch, StreamingStats};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming statistics agree with direct computation.
    #[test]
    fn streaming_matches_batch(xs in proptest::collection::vec(-1e3f64..1e3, 2..300)) {
        let s: StreamingStats = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-9 * (1.0 + mean.abs()));
        prop_assert!((s.sample_variance() - var).abs() < 1e-6 * (1.0 + var));
        prop_assert_eq!(s.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Merging arbitrary splits equals one-pass accumulation.
    #[test]
    fn merge_associative(xs in proptest::collection::vec(-100f64..100.0, 2..200), cut in 0usize..200) {
        let cut = cut.min(xs.len());
        let whole: StreamingStats = xs.iter().copied().collect();
        let mut left: StreamingStats = xs[..cut].iter().copied().collect();
        let right: StreamingStats = xs[cut..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-7);
    }

    /// ECDF quantiles are order statistics: monotone in p and within
    /// sample range; cdf∘quantile ≥ p.
    #[test]
    fn ecdf_quantile_laws(xs in proptest::collection::vec(-1e3f64..1e3, 1..200), p in 0.0f64..1.0, dp in 0.0f64..0.2) {
        let e = Ecdf::from_samples(&xs);
        let q1 = e.quantile(p);
        let q2 = e.quantile((p + dp).min(1.0));
        prop_assert!(q1 <= q2);
        prop_assert!(q1 >= e.min() && q1 <= e.max());
        prop_assert!(e.cdf(q1) + 1e-12 >= p);
    }

    /// KS distance is within [0, 1]; against the ECDF's own (right-
    /// continuous) step function it equals the step height 1/n — the
    /// left-limit term of the supremum.
    #[test]
    fn ks_distance_bounds(xs in proptest::collection::vec(0.0f64..100.0, 2..200)) {
        let e = Ecdf::from_samples(&xs);
        let d_self = e.ks_distance(|x| e.cdf(x));
        prop_assert!(d_self <= 1.0 / e.len() as f64 + 1e-12, "self distance {d_self}");
        let d_other = e.ks_distance(|_| 0.0);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d_other));
    }

    /// Confidence intervals contain their own mean and shrink with level.
    #[test]
    fn ci_laws(xs in proptest::collection::vec(-50f64..50.0, 3..500)) {
        let s: StreamingStats = xs.iter().copied().collect();
        let narrow = ConfidenceInterval::for_mean(&s, 0.5);
        let wide = ConfidenceInterval::for_mean(&s, 0.99);
        prop_assert!(narrow.contains(s.mean()));
        prop_assert!(wide.half_width() + 1e-15 >= narrow.half_width());
    }

    /// Sketch quantiles match the exact ECDF order statistic within the
    /// documented relative-error bound, at every probed p.
    #[test]
    fn sketch_quantile_error_within_alpha(
        xs in proptest::collection::vec(1e-9f64..1e6, 1..2000),
        p in 0.0f64..1.0,
    ) {
        let mut s = QuantileSketch::new();
        s.extend(xs.iter().copied());
        let e = Ecdf::from_samples(&xs);
        for q in [0.0, p, 0.5, 0.95, 0.99, 1.0] {
            let exact = e.quantile(q);
            let approx = s.quantile(q);
            prop_assert!(
                (approx - exact).abs() <= s.alpha() * exact + 1e-300,
                "q={}: approx={} exact={}", q, approx, exact
            );
        }
        prop_assert_eq!(s.count(), xs.len() as u64);
        prop_assert_eq!(s.min(), e.min());
        prop_assert_eq!(s.max(), e.max());
    }

    /// Sketch merging is exactly associative and order-independent, and
    /// any merge of a split equals the single-stream sketch.
    #[test]
    fn sketch_merge_associative(
        xs in proptest::collection::vec(1e-9f64..1e6, 3..1200),
        cut1 in 0usize..1200,
        cut2 in 0usize..1200,
    ) {
        let (a, b) = (cut1.min(xs.len()), cut2.min(xs.len()));
        let (lo, hi) = (a.min(b), a.max(b));
        let mut s1 = QuantileSketch::new();
        s1.extend(xs[..lo].iter().copied());
        let mut s2 = QuantileSketch::new();
        s2.extend(xs[lo..hi].iter().copied());
        let mut s3 = QuantileSketch::new();
        s3.extend(xs[hi..].iter().copied());
        let mut whole = QuantileSketch::new();
        whole.extend(xs.iter().copied());

        // (s1 ∪ s2) ∪ s3
        let mut left = s1.clone();
        left.merge(&s2);
        left.merge(&s3);
        // s1 ∪ (s2 ∪ s3)
        let mut right = s2.clone();
        right.merge(&s3);
        let mut outer = s1.clone();
        outer.merge(&right);
        // Reversed order.
        let mut rev = s3.clone();
        rev.merge(&s2);
        rev.merge(&s1);

        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(&outer, &whole);
        prop_assert_eq!(&rev, &whole);
    }

    /// `StreamingStats::push_slice` is bit-identical to scalar pushes —
    /// the Welford recurrence carries a serial dependence, so the slice
    /// entry point must never reassociate it (splitting the slice
    /// arbitrarily must not matter either).
    #[test]
    fn streaming_push_slice_bit_identical(
        xs in proptest::collection::vec(1e-9f64..1e6, 0..600),
        cut in 0usize..600,
    ) {
        let cut = cut.min(xs.len());
        let mut scalar = StreamingStats::new();
        for &x in &xs {
            scalar.push(x);
        }
        let mut sliced = StreamingStats::new();
        sliced.push_slice(&xs[..cut]);
        sliced.push_slice(&xs[cut..]);
        prop_assert_eq!(sliced.count(), scalar.count());
        prop_assert_eq!(sliced.mean().to_bits(), scalar.mean().to_bits());
        prop_assert_eq!(
            sliced.sample_variance().to_bits(),
            scalar.sample_variance().to_bits()
        );
        prop_assert_eq!(sliced.min().to_bits(), scalar.min().to_bits());
        prop_assert_eq!(sliced.max().to_bits(), scalar.max().to_bits());
    }

    /// `QuantileSketch::push_slice` is bit-identical to scalar pushes:
    /// same bins, same counters, same quantile answers.
    #[test]
    fn sketch_push_slice_bit_identical(
        xs in proptest::collection::vec(1e-9f64..1e6, 0..600),
        cut in 0usize..600,
        p in 0.0f64..1.0,
    ) {
        let cut = cut.min(xs.len());
        let mut scalar = QuantileSketch::new();
        for &x in &xs {
            scalar.push(x);
        }
        let mut sliced = QuantileSketch::new();
        sliced.push_slice(&xs[..cut]);
        sliced.push_slice(&xs[cut..]);
        prop_assert_eq!(&sliced, &scalar);
        if !xs.is_empty() {
            prop_assert_eq!(sliced.quantile(p).to_bits(), scalar.quantile(p).to_bits());
        }
    }
}
