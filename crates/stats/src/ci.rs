//! Confidence intervals for sample means.

use std::fmt;

use crate::streaming::StreamingStats;

/// A two-sided confidence interval for a mean.
///
/// The paper's Table 3 quotes confidence intervals for each measured
/// latency; the simulator reports the same.
///
/// # Examples
///
/// ```
/// use memlat_stats::{ConfidenceInterval, StreamingStats};
/// let s: StreamingStats = (0..10_000).map(|i| (i % 100) as f64).collect();
/// let ci = ConfidenceInterval::for_mean(&s, 0.95);
/// assert!(ci.contains(49.5));
/// assert!(ci.half_width() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (the sample mean).
    pub mean: f64,
    /// Lower endpoint.
    pub lower: f64,
    /// Upper endpoint.
    pub upper: f64,
    /// Confidence level in `(0, 1)`, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Builds a normal-approximation CI for the mean of the accumulated
    /// samples: `mean ± z · s/√n`.
    ///
    /// Valid for the large sample counts the simulator produces (CLT);
    /// for `n < 2` the interval degenerates to the point estimate.
    ///
    /// # Panics
    ///
    /// Panics unless `level ∈ (0, 1)`.
    #[must_use]
    pub fn for_mean(stats: &StreamingStats, level: f64) -> Self {
        assert!(
            level > 0.0 && level < 1.0,
            "level must be in (0,1), got {level}"
        );
        let mean = stats.mean();
        let half = z_value(level) * stats.std_error();
        Self {
            mean,
            lower: mean - half,
            upper: mean + half,
            level,
        }
    }

    /// Builds a Student-t CI for the mean of the accumulated samples:
    /// `mean ± t_{n−1} · s/√n`.
    ///
    /// This is the right interval when `n` is the handful of independent
    /// *replications* the conformance harness runs (t_{2} at 95% is 4.30
    /// vs the normal 1.96 — the normal interval would claim far more
    /// precision than three replications deliver). For `n < 2` the
    /// interval degenerates to the point estimate.
    ///
    /// # Panics
    ///
    /// Panics unless `level ∈ (0, 1)`.
    #[must_use]
    pub fn for_mean_t(stats: &StreamingStats, level: f64) -> Self {
        assert!(
            level > 0.0 && level < 1.0,
            "level must be in (0,1), got {level}"
        );
        let mean = stats.mean();
        let half = if stats.count() < 2 {
            0.0
        } else {
            t_value(level, stats.count() - 1) * stats.std_error()
        };
        Self {
            mean,
            lower: mean - half,
            upper: mean + half,
            level,
        }
    }

    /// Half-width of the interval.
    #[must_use]
    pub fn half_width(&self) -> f64 {
        0.5 * (self.upper - self.lower)
    }

    /// Whether `x` lies inside the interval.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lower && x <= self.upper
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.6} [{:.6}, {:.6}] @{:.0}%",
            self.mean,
            self.lower,
            self.upper,
            self.level * 100.0
        )
    }
}

/// Two-sided standard-normal critical value `z` with
/// `P{|Z| ≤ z} = level`.
///
/// Uses Acklam's rational approximation of the normal quantile
/// (|ε| < 1.15e-9), which is plenty for reporting CIs.
///
/// # Panics
///
/// Panics unless `level ∈ (0, 1)`.
///
#[must_use]
fn z_value(level: f64) -> f64 {
    assert!(
        level > 0.0 && level < 1.0,
        "level must be in (0,1), got {level}"
    );
    normal_quantile(0.5 + level / 2.0)
}

/// Two-sided Student-t critical value with `df` degrees of freedom:
/// the `t` with `P{|T_df| ≤ t} = level`.
///
/// Computed by bisecting the exact t CDF
/// `F(t) = 1 − ½·I_{df/(df+t²)}(df/2, ½)` (regularized incomplete
/// beta), so it is accurate at the tiny `df` replication counts
/// produce — where the normal approximation is badly overconfident.
/// Converges to [`z_value`] as `df → ∞`.
///
/// # Panics
///
/// Panics unless `level ∈ (0, 1)` and `df ≥ 1`.
///
#[must_use]
fn t_value(level: f64, df: u64) -> f64 {
    assert!(
        level > 0.0 && level < 1.0,
        "level must be in (0,1), got {level}"
    );
    assert!(df >= 1, "t_value requires df >= 1");
    let nu = df as f64;
    // P{|T| ≤ t} = 1 − I_{ν/(ν+t²)}(ν/2, 1/2).
    let two_sided =
        |t: f64| 1.0 - memlat_numerics::special::beta_inc(nu / 2.0, 0.5, nu / (nu + t * t));
    // Bracket: the t quantile is at least the normal one; double until
    // the CDF crosses the level (df=1 at 99.9% is ~636, so start wide).
    let mut lo = 0.0;
    let mut hi = z_value(level).max(1.0);
    while two_sided(hi) < level {
        lo = hi;
        hi *= 2.0;
        assert!(hi.is_finite(), "t_value bracket diverged");
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if two_sided(mid) < level {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 1e-12 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Acklam's inverse normal CDF approximation.
fn normal_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_reference_values() {
        assert!((z_value(0.90) - 1.644_854).abs() < 1e-4);
        assert!((z_value(0.95) - 1.959_964).abs() < 1e-4);
        assert!((z_value(0.99) - 2.575_829).abs() < 1e-4);
    }

    #[test]
    fn normal_quantile_symmetry() {
        for p in [0.01, 0.1, 0.3] {
            assert!(
                (normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-9,
                "p={p}"
            );
        }
        assert!(normal_quantile(0.5).abs() < 1e-9);
    }

    #[test]
    fn t_reference_values() {
        // Classic t-table entries (two-sided).
        assert!((t_value(0.95, 1) - 12.7062).abs() < 1e-3);
        assert!((t_value(0.95, 2) - 4.30265).abs() < 1e-4);
        assert!((t_value(0.95, 4) - 2.77645).abs() < 1e-4);
        assert!((t_value(0.95, 9) - 2.26216).abs() < 1e-4);
        assert!((t_value(0.99, 4) - 4.60409).abs() < 1e-4);
        assert!((t_value(0.90, 7) - 1.89458).abs() < 1e-4);
    }

    #[test]
    fn t_converges_to_normal() {
        for level in [0.90, 0.95, 0.99] {
            let t = t_value(level, 1_000_000);
            assert!((t - z_value(level)).abs() < 1e-3, "level={level}");
        }
    }

    #[test]
    fn t_interval_wider_than_normal_at_small_n() {
        let s: StreamingStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        let z = ConfidenceInterval::for_mean(&s, 0.95);
        let t = ConfidenceInterval::for_mean_t(&s, 0.95);
        assert_eq!(z.mean, t.mean);
        assert!(t.half_width() > 1.5 * z.half_width());
        // Degenerate single sample.
        let one: StreamingStats = [5.0].into_iter().collect();
        assert_eq!(ConfidenceInterval::for_mean_t(&one, 0.95).half_width(), 0.0);
    }

    #[test]
    fn ci_width_shrinks_with_samples() {
        let small: StreamingStats = (0..100).map(|i| (i % 10) as f64).collect();
        let large: StreamingStats = (0..10_000).map(|i| (i % 10) as f64).collect();
        let ci_s = ConfidenceInterval::for_mean(&small, 0.95);
        let ci_l = ConfidenceInterval::for_mean(&large, 0.95);
        assert!(ci_l.half_width() < ci_s.half_width());
        assert!(ci_s.contains(4.5));
        assert!(ci_l.contains(4.5));
    }

    #[test]
    fn degenerate_for_single_sample() {
        let one: StreamingStats = [7.0].into_iter().collect();
        let ci = ConfidenceInterval::for_mean(&one, 0.95);
        assert_eq!(ci.mean, 7.0);
        assert_eq!(ci.half_width(), 0.0);
        assert!(!ci.to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "level must be in")]
    fn rejects_bad_level() {
        let s = StreamingStats::new();
        let _ = ConfidenceInterval::for_mean(&s, 1.0);
    }
}
