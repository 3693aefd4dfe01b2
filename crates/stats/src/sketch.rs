//! Mergeable logarithmic quantile sketch (DDSketch-style).
//!
//! The cluster simulator used to keep every per-key latency sample in
//! memory so experiments could ask for p95/p99 afterwards. This sketch
//! replaces those buffers with a constant-size summary: values are
//! counted in geometrically-spaced bins, so any quantile of the inserted
//! positive values can be answered with **relative error at most
//! `alpha` = 1%**, and two sketches built from disjoint streams
//! merge by plain counter addition — exactly associative and
//! commutative, which is what makes the parallel per-server simulation
//! bit-identical to the sequential one.
//!
//! # Accuracy contract
//!
//! For any `p`, [`QuantileSketch::quantile`] returns a value `q̂` such
//! that the exact order statistic `q` (the same `ceil(p·n)` rank
//! convention as [`crate::Ecdf::quantile`]) satisfies
//! `|q̂ − q| ≤ alpha · q` whenever `q ≥ MIN_POSITIVE`. Values below
//! [`MIN_POSITIVE`] (including zero) are collapsed into one underflow
//! bin represented by the exact minimum seen there.
//!
//! # Examples
//!
//! ```
//! use memlat_stats::QuantileSketch;
//! let mut s = QuantileSketch::new();
//! for i in 1..=1000 {
//!     s.push(f64::from(i));
//! }
//! let p95 = s.quantile(0.95);
//! assert!((p95 - 950.0).abs() <= 0.01 * 950.0);
//! ```

/// Positive values below this threshold share one underflow bin.
///
/// Simulated latencies are on the order of 1e-6..1e-1 seconds, far above
/// this, so in practice the underflow bin only ever holds exact zeros.
pub const MIN_POSITIVE: f64 = 1e-12;

/// The relative-error bound α (1%), shared by every sketch.
const ALPHA: f64 = 0.01;

/// The bin ratio `γ = (1+α)/(1−α)`.
const GAMMA: f64 = (1.0 + ALPHA) / (1.0 - ALPHA);

/// `ln γ`, the bin width in log space: `GAMMA.ln()` as a literal, since
/// `ln` cannot run in a constant (a unit test checks the bits).
const LN_GAMMA: f64 = 0.020_000_666_706_669_435;

/// `raw.ceil()` as an `i32`, without the libm `ceil` call.
///
/// On the baseline x86-64 target `f64::ceil` is a libm call, and this
/// runs once per pushed sample. `as i32` truncates toward zero, so
/// rounding up exactly when the truncation landed below `raw` is the
/// ceiling. It is exact wherever a bin index is defined: for `x` in
/// `[MIN_POSITIVE, f64::MAX]`, `raw = dln(x)/ln γ` lies within
/// `±36 000`, far inside `i32`.
#[inline]
fn bin_ceil(raw: f64) -> i32 {
    let t = raw as i32;
    t + i32::from(f64::from(t) < raw)
}

/// A mergeable quantile sketch over nonnegative samples with bounded
/// relative error.
///
/// Bin `i` covers `(γ^(i−1), γ^i]` with `γ = (1+α)/(1−α)`; the bin
/// representative `2γ^i/(1+γ)` is within `α` (relative) of every value
/// in the bin. Memory is `O(log(max/min)/α)` — a few hundred `u64`
/// counters for any realistic latency range — independent of the number
/// of samples.
///
/// Counters live in one dense `Vec` indexed from `base` (the lowest bin
/// seen so far) rather than a tree map, so the simulator's per-key
/// `push` is an array increment with no allocation or pointer chasing
/// once the latency range has been seen. The vector grows exactly to
/// each new minimum or maximum bin, so its first and last counters are
/// always nonzero. A new minimum shifts every counter up, which happens
/// only while the stream's range is still being discovered: early in a
/// stream, and rarely after.
///
/// Equality ([`PartialEq`]) compares the *logical* contents (occupied
/// bins and their counts), not the backing storage, so two sketches
/// that saw the same samples in different orders compare equal even if
/// their vectors grew differently.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// Log-bin index of `bins[0]`.
    base: i32,
    bins: Vec<u64>,
    /// Samples in `(-inf, MIN_POSITIVE)`: zeros, and negatives clamped up.
    underflow: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch with the relative-error bound `alpha` of
    /// 1%.
    #[must_use]
    pub fn new() -> Self {
        Self {
            base: 0,
            bins: Vec::new(),
            underflow: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The documented relative-error bound, 1% for every sketch.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        ALPHA
    }

    /// Number of samples inserted (non-finite samples are dropped and
    /// not counted).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether any sample has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum inserted sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sketch.
    #[must_use]
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of empty sketch");
        self.min
    }

    /// Exact maximum inserted sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sketch.
    #[must_use]
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of empty sketch");
        self.max
    }

    /// Number of log-spaced bins currently occupied (memory footprint).
    #[must_use]
    pub fn bin_count(&self) -> usize {
        self.bins.iter().filter(|&&c| c != 0).count() + usize::from(self.underflow > 0)
    }

    /// Inserts one sample.
    ///
    /// Non-finite inputs (NaN and ±∞) are dropped and not counted —
    /// NaNs mirror [`crate::Ecdf::from_samples`], and an infinity has
    /// no log-bin (before this was explicit, `push(f64::INFINITY)`
    /// saturated `Self::bin_index` to `i32::MAX` and the dense bin
    /// array tried to grow to 2³¹ counters). Finite values below
    /// [`MIN_POSITIVE`] — zeros, subnormals, and negatives — collapse
    /// into the underflow bin with the exact minimum preserved.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x < MIN_POSITIVE {
            self.underflow += 1;
        } else {
            let idx = Self::bin_index(x);
            *self.slot(idx) += 1;
        }
    }

    /// Inserts a block of samples — bit-identical to pushing each element
    /// in order.
    ///
    /// The expensive part of a push is the logarithm behind the bin
    /// index; here it is hoisted out of the per-element loop and
    /// computed four lanes at a time by
    /// [`memlat_dist::simd::sketch_bins`] over a small stack chunk. The
    /// kernel is the same deterministic `dln` the scalar path uses, op
    /// for op, so chunked insertion is bit-identical to repeated
    /// [`Self::push`] under every dispatch mode. Out-of-domain elements
    /// (non-finite, or below [`MIN_POSITIVE`]) get a placeholder lane
    /// value that is never read: they go to the drop/underflow paths
    /// first, exactly as `push` does.
    ///
    /// Per chunk, the count, extremes and underflow tally stay in
    /// locals, the in-domain bins are collected with their span
    /// `[lo, hi]`, the window grows once to cover that span, and the
    /// counters are then incremented with no window test.
    #[inline]
    pub fn push_slice(&mut self, xs: &[f64]) {
        const CHUNK: usize = 256;
        let mut raw = [0.0f64; CHUNK];
        let mut bins = [0i32; CHUNK];
        for chunk in xs.chunks(CHUNK) {
            let raw = &mut raw[..chunk.len()];
            memlat_dist::simd::sketch_bins(chunk, LN_GAMMA, MIN_POSITIVE, raw);
            let (mut count, mut underflow) = (0u64, 0u64);
            let (mut min, mut max) = (self.min, self.max);
            let (mut lo, mut hi) = (i32::MAX, i32::MIN);
            let mut binned = 0;
            for (&x, &r) in chunk.iter().zip(raw.iter()) {
                if !x.is_finite() {
                    continue;
                }
                count += 1;
                min = min.min(x);
                max = max.max(x);
                if x < MIN_POSITIVE {
                    underflow += 1;
                } else {
                    let idx = bin_ceil(r);
                    lo = lo.min(idx);
                    hi = hi.max(idx);
                    bins[binned] = idx;
                    binned += 1;
                }
            }
            self.count += count;
            self.underflow += underflow;
            (self.min, self.max) = (min, max);
            if binned == 0 {
                continue;
            }
            self.cover(lo, hi);
            let base = self.base;
            for &idx in &bins[..binned] {
                self.bins[(idx - base) as usize] += 1;
            }
        }
    }

    /// The counter for log-bin `idx`, growing the dense array when the
    /// bin lies outside the current `[base, base + len)` window.
    #[inline]
    fn slot(&mut self, idx: i32) -> &mut u64 {
        self.cover(idx, idx);
        &mut self.bins[(idx - self.base) as usize]
    }

    /// Grows the dense array to cover bins `lo..=hi` (`lo ≤ hi`), which
    /// the caller is about to count: the window only ever extends to
    /// an occupied bin, so its first and last counters stay nonzero.
    #[inline]
    fn cover(&mut self, lo: i32, hi: i32) {
        if self.bins.is_empty() {
            self.base = lo;
            self.bins.resize((hi - lo) as usize + 1, 0);
            return;
        }
        if lo < self.base {
            // New minimum bin: shift existing counters up.
            let grow = (self.base - lo) as usize;
            self.bins.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = lo;
        }
        if (hi - self.base) as usize >= self.bins.len() {
            self.bins.resize((hi - self.base) as usize + 1, 0);
        }
    }

    /// Folds another sketch into this one by counter addition.
    ///
    /// Merging is exactly associative and commutative: any merge order
    /// over the same set of per-stream sketches yields a bit-identical
    /// state (and therefore identical quantile answers).
    pub fn merge(&mut self, other: &Self) {
        for (i, &c) in other.bins.iter().enumerate() {
            if c != 0 {
                *self.slot(other.base + i as i32) += c;
            }
        }
        self.underflow += other.underflow;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `p`-th quantile with the same rank convention as
    /// [`crate::Ecdf::quantile`]: the (clamped) `ceil(p·n)`-th order
    /// statistic, answered to within `alpha` relative error.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]` or the sketch is empty.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile requires p in [0,1], got {p}"
        );
        assert!(self.count > 0, "quantile of empty sketch");
        let rank = if p <= 0.0 {
            1
        } else {
            ((p * self.count as f64).ceil() as u64).clamp(1, self.count)
        };
        let mut cum = self.underflow;
        if cum >= rank {
            // All-underflow prefix: the exact minimum is the best
            // representative we have (in practice these are zeros).
            return self.min;
        }
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::representative(self.base + i as i32).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Log-bin index for a value `≥ MIN_POSITIVE`: the smallest `i` with
    /// `γ^i ≥ x`.
    ///
    /// Callers must route non-finite and below-`MIN_POSITIVE` values to
    /// the underflow/drop paths first ([`Self::push`] does): an index
    /// computed from those would either saturate or land below the
    /// first representable bin.
    fn bin_index(x: f64) -> i32 {
        debug_assert!(
            x.is_finite() && x >= MIN_POSITIVE,
            "bin_index expects a finite value >= MIN_POSITIVE, got {x}"
        );
        // `dln`, not libm `ln`: the block path ([`Self::push_slice`])
        // computes this same quotient four lanes at a time with the
        // AVX2 twin of `dln`, and scalar-vs-block bit-identity requires
        // the one-at-a-time path to use the identical log. (`dln` and
        // libm agree to ≤1 ulp, so the α-relative accuracy contract is
        // unaffected; bins can shift only for values within a ulp of a
        // bin edge, which the contract already permits.)
        bin_ceil(memlat_dist::simd::dln(x) / LN_GAMMA)
    }

    /// Midpoint representative of bin `(γ^(i−1), γ^i]`; within `alpha`
    /// relative error of every value in the bin.
    fn representative(idx: i32) -> f64 {
        2.0 * (f64::from(idx) * LN_GAMMA).exp() / (1.0 + GAMMA)
    }
}

/// Logical equality: same exact extremes, and the
/// same occupied bins with the same counts. Backing-array `base` and
/// zero padding (which depend on insertion order) are ignored.
impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        fn occupied(base: i32, bins: &[u64]) -> (i32, &[u64]) {
            match bins.iter().position(|&c| c != 0) {
                None => (0, &[]),
                Some(first) => {
                    let last = bins.iter().rposition(|&c| c != 0).expect("nonzero exists");
                    (base + first as i32, &bins[first..=last])
                }
            }
        }
        let (self_base, self_bins) = occupied(self.base, &self.bins);
        let (other_base, other_bins) = occupied(other.base, &other.bins);
        self.count == other.count
            && self.underflow == other.underflow
            && self.min == other.min
            && self.max == other.max
            && self_base == other_base
            && self_bins == other_bins
    }
}

impl Extend<f64> for QuantileSketch {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ecdf;

    #[test]
    fn integer_ceil_matches_float_ceil() {
        // The cast-based ceil in `bin_index` must agree with the libm
        // formula for every reachable input, including the edges.
        let float_version = |x: f64| -> i32 {
            let raw = (memlat_dist::simd::dln(x) / LN_GAMMA).ceil();
            raw.clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32
        };
        // Only the domain `push` routes here: finite and ≥ MIN_POSITIVE
        // (non-finite and underflow values never reach bin_index).
        let mut probes: Vec<f64> = vec![MIN_POSITIVE, 1.0, f64::MAX];
        for e in -11..40 {
            let b = 10.0f64.powi(e);
            probes.extend([b, b * (1.0 + 1e-15), b * std::f64::consts::E]);
        }
        // Values sitting exactly on bin boundaries (integer raw),
        // staying above the MIN_POSITIVE underflow threshold.
        for i in [-1300i32, -1, 0, 1, 5000] {
            let v = (f64::from(i) * LN_GAMMA).exp();
            if v >= MIN_POSITIVE {
                probes.push(v);
            }
        }
        for x in probes {
            assert_eq!(QuantileSketch::bin_index(x), float_version(x), "x={x:e}");
        }
        // The ceiling itself over the whole reachable range of `raw`:
        // both domain ends, exact integers (bin edges) of either sign,
        // and their neighbours one ulp away.
        let lo = memlat_dist::simd::dln(MIN_POSITIVE) / LN_GAMMA;
        let hi = memlat_dist::simd::dln(f64::MAX) / LN_GAMMA;
        assert!(lo > -36_000.0 && hi < 36_000.0, "raw range [{lo}, {hi}]");
        let mut raws = vec![lo, hi, lo.floor(), hi.ceil(), -0.0, 0.5, -0.5];
        for k in [-1382.0f64, -1381.0, -1.0, 0.0, 1.0, 2.0, 35_489.0, 35_490.0] {
            raws.extend([k, k.next_down(), k.next_up()]);
        }
        for raw in raws {
            assert_eq!(bin_ceil(raw), raw.ceil() as i32, "raw={raw:e}");
        }
    }

    #[test]
    fn push_slice_is_bit_identical_to_push() {
        // The chunked lane path must be indistinguishable from scalar
        // insertion — same counts, same bins, same exact extremes —
        // under both dispatch modes, including chunk-boundary-straddling
        // lengths and the drop/underflow edge cases inside a chunk.
        let mut xs: Vec<f64> = (0u32..1000)
            .map(|i| {
                // Latency-shaped spread across the sketch's range plus a
                // pseudo-random mantissa wiggle (no RNG dependency here).
                let wiggle = f64::from(i.wrapping_mul(2_654_435_761u32) >> 16) * 1e-9;
                1e-6 * 1.02f64.powi(i as i32 % 600) * (1.0 + wiggle)
            })
            .collect();
        xs[3] = 0.0;
        xs[100] = f64::NAN;
        xs[255] = f64::INFINITY;
        xs[256] = MIN_POSITIVE / 2.0;
        xs[511] = f64::NEG_INFINITY;
        xs[512] = -1.0;
        for forced_scalar in [false, true] {
            memlat_dist::simd::set_forced_scalar(forced_scalar);
            for len in [0usize, 1, 7, 255, 256, 257, 1000] {
                let mut scalar = QuantileSketch::new();
                for &x in &xs[..len] {
                    scalar.push(x);
                }
                let mut block = QuantileSketch::new();
                block.push_slice(&xs[..len]);
                assert_eq!(scalar, block, "len={len} forced_scalar={forced_scalar}");
                assert_eq!(scalar.count(), block.count());
                if scalar.count() > 0 {
                    assert_eq!(scalar.min().to_bits(), block.min().to_bits());
                    assert_eq!(scalar.max().to_bits(), block.max().to_bits());
                }
            }
        }
        memlat_dist::simd::set_forced_scalar(false);
    }

    #[test]
    fn push_slice_grows_both_ends_in_one_chunk() {
        // Chunks that reach below `base` and above the top bin at once,
        // into an empty sketch and into a populated one, with dropped
        // and underflow values between the in-range ones: the window
        // grows once per chunk, and must end equal to repeated `push`
        // with the array exactly the occupied span.
        let chunks: [&[f64]; 4] = [
            &[1e-3, f64::NAN, 2e-3, 0.0, 1e-3],
            &[
                5e-2,
                f64::INFINITY,
                1e-6,
                -2.0,
                3e2,
                f64::NEG_INFINITY,
                1e-3,
            ],
            &[MIN_POSITIVE, 1e-13, f64::MAX, f64::NAN, 7e-1],
            &[f64::NAN, 0.0, f64::NEG_INFINITY],
        ];
        for forced_scalar in [false, true] {
            memlat_dist::simd::set_forced_scalar(forced_scalar);
            let mut pushed = QuantileSketch::new();
            let mut sliced = QuantileSketch::new();
            for chunk in chunks {
                for &x in chunk {
                    pushed.push(x);
                }
                sliced.push_slice(chunk);
                assert_eq!(sliced, pushed, "forced_scalar={forced_scalar}");
                assert_eq!(sliced.bins, pushed.bins);
                assert_eq!(sliced.base, pushed.base);
                assert_eq!(sliced.bins.len(), occupied_span(&sliced));
                assert_eq!(sliced.underflow, pushed.underflow);
                assert_eq!(sliced.min().to_bits(), pushed.min().to_bits());
                assert_eq!(sliced.max().to_bits(), pushed.max().to_bits());
            }
        }
        memlat_dist::simd::set_forced_scalar(false);
    }

    #[test]
    fn quantiles_within_alpha_of_exact() {
        let samples: Vec<f64> = (1..=5000).map(|i| f64::from(i) * 1e-6).collect();
        let mut s = QuantileSketch::new();
        s.extend(samples.iter().copied());
        let e = Ecdf::from_samples(&samples);
        for p in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = e.quantile(p);
            let approx = s.quantile(p);
            assert!(
                (approx - exact).abs() <= s.alpha() * exact,
                "p={p}: approx={approx} exact={exact}"
            );
        }
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut all = QuantileSketch::new();
        let mut parts: Vec<QuantileSketch> = (0..4).map(|_| QuantileSketch::new()).collect();
        for i in 0..4000u32 {
            let x = f64::from(i % 997) + 0.5;
            all.push(x);
            parts[(i % 4) as usize].push(x);
        }
        let mut merged = QuantileSketch::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, all);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut c = QuantileSketch::new();
        for i in 0..300 {
            a.push(f64::from(i) + 1.0);
            b.push(f64::from(i) * 2.0 + 0.25);
            c.push(1e-3 * f64::from(i + 1));
        }
        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc, cba);
    }

    #[test]
    fn zeros_and_min_max_are_exact() {
        let mut s = QuantileSketch::new();
        s.push(0.0);
        s.push(0.0);
        s.push(3.0);
        s.push(7.0);
        assert_eq!(s.count(), 4);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 7.0);
        // Rank 1 and 2 are zeros (underflow bin → exact min).
        assert_eq!(s.quantile(0.25), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.quantile(1.0).max(7.0), s.max());
    }

    #[test]
    fn nan_dropped() {
        let mut s = QuantileSketch::new();
        s.push(f64::NAN);
        s.push(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.quantile(0.5), 1.0);
    }

    #[test]
    fn infinities_dropped() {
        // Regression: +∞ used to saturate bin_index to i32::MAX and ask
        // the dense bin array for 2³¹ counters; −∞ poisoned `min`.
        let mut s = QuantileSketch::new();
        s.push(f64::INFINITY);
        s.push(f64::NEG_INFINITY);
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        s.push(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 2.0);
        assert_eq!(s.bin_count(), 1);
    }

    #[test]
    fn below_first_bin_goes_to_underflow() {
        // Negatives, zeros, and sub-MIN_POSITIVE positives all share the
        // underflow bin; min stays exact so low quantiles are honest.
        let mut s = QuantileSketch::new();
        s.push(-3.0);
        s.push(0.0);
        s.push(1e-15); // positive but below MIN_POSITIVE
        s.push(5.0);
        assert_eq!(s.count(), 4);
        assert_eq!(s.min(), -3.0);
        // Ranks 1..3 are underflow: reported as the exact minimum.
        assert_eq!(s.quantile(0.25), -3.0);
        assert_eq!(s.quantile(0.75), -3.0);
        // Rank 4 is the real sample.
        let q = s.quantile(1.0);
        assert!((q - 5.0).abs() <= s.alpha() * 5.0, "q={q}");
        // Underflow counts as one occupied bin.
        assert_eq!(s.bin_count(), 2);
    }

    #[test]
    fn merged_sketch_keeps_alpha_error_bound() {
        // The documented contract — |q̂ − q| ≤ α·q — must survive a
        // merge of sketches built from disjoint shards, mixed with
        // underflow values and out-of-order inserts.
        let samples: Vec<f64> = (1..=6000).map(|i| f64::from(i) * 1e-6).collect();
        let mut shards: Vec<QuantileSketch> = (0..5).map(|_| QuantileSketch::new()).collect();
        for (i, &x) in samples.iter().enumerate() {
            shards[i % 5].push(x);
        }
        let mut merged = QuantileSketch::new();
        for sh in &shards {
            merged.merge(sh);
        }
        assert_eq!(merged.count(), samples.len() as u64);
        let exact = Ecdf::from_samples(&samples);
        for p in [0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let q = exact.quantile(p);
            let approx = merged.quantile(p);
            assert!(
                (approx - q).abs() <= merged.alpha() * q,
                "p={p}: approx={approx} exact={q}"
            );
        }
        // Extremes are exact, not binned.
        assert_eq!(merged.min(), 1e-6);
        assert_eq!(merged.max(), 6e-3);
    }

    #[test]
    fn ln_gamma_literal_is_the_run_time_log() {
        let alpha = QuantileSketch::new().alpha();
        let run_time = ((1.0 + alpha) / (1.0 - alpha)).ln();
        assert_eq!(LN_GAMMA.to_bits(), run_time.to_bits());
        assert_eq!(GAMMA.to_bits(), ((1.0 + alpha) / (1.0 - alpha)).to_bits());
    }

    #[test]
    #[should_panic(expected = "empty sketch")]
    fn empty_quantile_panics() {
        let _ = QuantileSketch::new().quantile(0.5);
    }

    #[test]
    fn insertion_order_does_not_affect_equality() {
        // Ascending vs descending pushes grow the dense array from
        // opposite ends; the sketches must still compare equal.
        let values: Vec<f64> = (1..=400).map(|i| 1e-6 * f64::from(i)).collect();
        let mut asc = QuantileSketch::new();
        let mut desc = QuantileSketch::new();
        for &v in &values {
            asc.push(v);
        }
        for &v in values.iter().rev() {
            desc.push(v);
        }
        assert_eq!(asc, desc);
        for p in [0.01, 0.5, 0.99] {
            assert_eq!(asc.quantile(p).to_bits(), desc.quantile(p).to_bits());
        }
    }

    #[test]
    fn front_growth_preserves_counts() {
        let mut s = QuantileSketch::new();
        s.push(1.0);
        s.push(1e-3); // forces a front extension
        s.push(1e3); // and a back extension
        assert_eq!(s.count(), 3);
        assert_eq!(s.bin_count(), 3);
        // Rank 1 of 3 is the small value; rank 2 is 1.0.
        let q1 = s.quantile(0.2);
        assert!((q1 - 1e-3).abs() <= s.alpha() * 1e-3, "q1={q1}");
        let q2 = s.quantile(0.5);
        assert!((q2 - 1.0).abs() <= s.alpha(), "q2={q2}");
    }

    /// The occupied span `last − first + 1` of the backing array.
    fn occupied_span(s: &QuantileSketch) -> usize {
        let first = s.bins.iter().position(|&c| c != 0).unwrap_or(0);
        s.bins
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |last| last + 1 - first)
    }

    #[test]
    fn monotone_streams_agree_across_push_slice_and_merge() {
        // Steps of 3% exceed one bin (γ ≈ 1.0202), so the descending
        // stream meets a new minimum bin on every push and the ascending
        // one a new maximum: the front-growth worst case and its mirror.
        let ascending: Vec<f64> = (0..700).map(|i| 1e-6 * 1.03f64.powi(i)).collect();
        let descending: Vec<f64> = ascending.iter().rev().copied().collect();
        let ps = [0.0, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];
        let mut reference: Option<QuantileSketch> = None;
        for xs in [&descending, &ascending] {
            let mut pushed = QuantileSketch::new();
            for &x in xs.iter() {
                pushed.push(x);
            }
            let mut sliced = QuantileSketch::new();
            sliced.push_slice(xs);
            let mut merged = QuantileSketch::new();
            for part in xs.chunks(7) {
                let mut p = QuantileSketch::new();
                p.push_slice(part);
                merged.merge(&p);
            }
            // Exact growth: the array is the occupied span.
            for s in [&pushed, &sliced, &merged] {
                assert_eq!(s.bins.len(), occupied_span(s));
            }
            let first = reference.get_or_insert_with(|| pushed.clone()).clone();
            for s in [&pushed, &sliced, &merged] {
                assert_eq!(*s, first);
                assert_eq!(s.min().to_bits(), first.min().to_bits());
                assert_eq!(s.max().to_bits(), first.max().to_bits());
                for p in ps {
                    assert_eq!(
                        s.quantile(p).to_bits(),
                        first.quantile(p).to_bits(),
                        "p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_memory() {
        let mut s = QuantileSketch::new();
        for i in 0..200_000u32 {
            s.push(1e-6 * (1.0 + f64::from(i % 10_000)));
        }
        // ~log(1e4)/log(gamma) ≈ 460 bins max for a 1e4 dynamic range.
        assert!(s.bin_count() < 1000, "bins={}", s.bin_count());
    }
}
