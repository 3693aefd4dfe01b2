//! Deterministic transcendental kernels and their AVX2 block twins.
//!
//! The block-batched hot path (PR 4) stages raw RNG bits into SoA lanes and
//! then transforms whole slices. Profiling showed the transforms themselves —
//! dominated by libm `ln`/`powf` calls — as the remaining bottleneck. libm
//! calls cannot be vectorized without changing results, because a 4-lane SIMD
//! polynomial will not reproduce libm's table-driven answers bit for bit.
//!
//! This module removes that coupling: both the scalar *and* the SIMD samplers
//! share one deterministic software implementation of `ln` and `exp`
//! ([`dln`]/[`dexp`], ports of the classic fdlibm kernels, branch-free over
//! our domain). Every AVX2 lane operation used here (`add/sub/mul/div/sqrt`,
//! compares, integer bit ops; **no FMA**) is IEEE-754 identical to its scalar
//! counterpart, so the vector kernels are bit-identical to the scalar
//! reference *by construction* — the differential suites then prove it
//! empirically.
//!
//! The kernels all read raw RNG bits banked in scalar draw order:
//! [`exp_from_bits`] is the exponential service lane, [`exp_scale_from_bits`]
//! and [`gp_from_bits`] are the Generalized Pareto gap lanes of the
//! speculative arrival pipeline, and [`sketch_bins`] is the quantile
//! sketch's log-bin lane. The GP power law runs through `dexp(-ξ·dln u)` in
//! the scalar sampler too, so every gap draw has one definition.
//!
//! Dispatch is resolved once at first use: x86-64 with AVX2 detected at
//! runtime takes the vector path unless `MEMLAT_NO_SIMD` is set in the
//! environment (or [`set_forced_scalar`] was called — the in-process test
//! hook). Everything else falls back to the scalar reference. Because the two
//! paths agree bitwise, toggling mid-run is harmless.
//!
//! This is the crate's single `unsafe` island (raw SIMD intrinsics +
//! `#[target_feature]` calls); the rest of the workspace stays
//! `deny(unsafe_code)`.
#![allow(unsafe_code)]
// The fdlibm constants below are hex-exact decimal expansions of the
// reference implementation's bit patterns; "trimming the excessive
// precision" or substituting `std::f64::consts` values would change the
// bits and break scalar↔SIMD (and cross-platform) bit-identity.
#![allow(clippy::excessive_precision, clippy::approx_constant)]

use std::sync::atomic::{AtomicU8, Ordering};

use crate::open_unit_from_bits;

// ---------------------------------------------------------------------------
// fdlibm constants (e_log.c / e_exp.c, Sun Microsystems; public reference
// implementation). Kept in full hex-exact decimal form.
// ---------------------------------------------------------------------------

const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;

const LG1: f64 = 6.666_666_666_666_735_130e-01;
const LG2: f64 = 3.999_999_999_940_941_908e-01;
const LG3: f64 = 2.857_142_874_366_239_149e-01;
const LG4: f64 = 2.222_219_843_214_978_396e-01;
const LG5: f64 = 1.818_357_216_161_805_012e-01;
const LG6: f64 = 1.531_383_769_920_937_332e-01;
const LG7: f64 = 1.479_819_860_511_658_591e-01;

const INV_LN2: f64 = 1.442_695_040_888_963_387_00e+00;

const P1: f64 = 1.666_666_666_666_660_190_37e-01;
const P2: f64 = -2.777_777_777_701_559_338_42e-03;
const P3: f64 = 6.613_756_321_437_934_361_17e-05;
const P4: f64 = -1.653_390_220_546_525_153_90e-06;
const P5: f64 = 4.138_136_797_057_238_460_39e-08;

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

/// Deterministic natural logarithm (fdlibm `e_log` port, branch-free).
///
/// Valid for normal, positive, finite `x`; this is exactly the domain the
/// samplers feed it (`open_unit` variates and their complements). Accuracy is
/// fdlibm-class (< 1 ulp over the sampler domain; the unit tests assert ≤ 4
/// ulps against libm). Unlike `f64::ln` this function's results are
/// defined by this source, not by the platform libm, so the SIMD twin can
/// reproduce them lane for lane.
#[inline]
#[must_use]
pub fn dln(x: f64) -> f64 {
    debug_assert!(
        x >= f64::MIN_POSITIVE && x.is_finite(),
        "dln domain is positive normal floats, got {x}"
    );
    let bits = x.to_bits() as i64;
    let hx = bits >> 32;
    let mut k = (hx >> 20) - 1023;
    let hxm = hx & 0x000f_ffff;
    // Round the mantissa split at sqrt(2): i = 0x100000 iff mantissa >=
    // 0x6a09c..., placing the normalized argument in [sqrt(2)/2, sqrt(2)).
    let i = (hxm + 0x95f64) & 0x0010_0000;
    let norm_bits = (((hxm | (i ^ 0x3ff0_0000)) << 32) | (bits & 0xffff_ffff)) as u64;
    let norm = f64::from_bits(norm_bits);
    k += i >> 20;
    let dk = k as f64;
    let f = norm - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t1 + t2;
    let hfsq = 0.5 * f * f;
    dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
}

/// Deterministic exponential (single-path fdlibm `e_exp` variant).
///
/// Valid for `|x| < 700` (results stay normal; the samplers stay far inside
/// this). Accuracy is a few ulps against libm — asserted by the unit tests —
/// and, like [`dln`], the answer is defined by this source so the SIMD twin
/// matches it bit for bit.
#[inline]
#[must_use]
pub fn dexp(x: f64) -> f64 {
    debug_assert!(x.abs() < 700.0, "dexp domain is |x| < 700, got {x}");
    // Argument reduction: x = k*ln2 + r, |r| <= ln2/2, k rounded to nearest
    // via the add-half-then-truncate idiom (truncation matches `as i32`).
    let k = (INV_LN2 * x + f64::copysign(0.5, x)) as i32;
    let t = f64::from(k);
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // Scale by 2^k with an exact exponent-field add (y is in ~[0.7, 1.42],
    // k is small, so this cannot overflow into NaN/Inf territory).
    f64::from_bits((y.to_bits() as i64 + (i64::from(k) << 52)) as u64)
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

const MODE_UNINIT: u8 = 0;
const MODE_SCALAR: u8 = 1;
const MODE_AVX2: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

#[inline]
fn mode() -> u8 {
    match MODE.load(Ordering::Relaxed) {
        MODE_UNINIT => init_mode(),
        m => m,
    }
}

#[cold]
fn init_mode() -> u8 {
    let env_scalar = std::env::var("MEMLAT_NO_SIMD")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    let m = if env_scalar { MODE_SCALAR } else { detect() };
    MODE.store(m, Ordering::Relaxed);
    m
}

#[cfg(target_arch = "x86_64")]
fn detect() -> u8 {
    if std::is_x86_feature_detected!("avx2") {
        MODE_AVX2
    } else {
        MODE_SCALAR
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> u8 {
    MODE_SCALAR
}

/// Returns true when the block kernels will take the AVX2 path.
#[must_use]
pub fn simd_active() -> bool {
    mode() == MODE_AVX2
}

/// Forces (or releases) the scalar fallback — the in-process twin of the
/// `MEMLAT_NO_SIMD` environment override, used by the differential tests to
/// compare both paths inside one process.
///
/// Passing `false` re-runs detection (honoring the environment variable)
/// at the next kernel call. Because the two paths are bit-identical,
/// toggling while other threads are mid-kernel is benign.
pub fn set_forced_scalar(force: bool) {
    let m = if force { MODE_SCALAR } else { MODE_UNINIT };
    MODE.store(m, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Block kernels (public entry points; scalar reference + AVX2 dispatch)
// ---------------------------------------------------------------------------

/// Appends `-dln(open_unit_from_bits(b)) / rate` for every `b` in `bits`
/// onto `out` — the exponential service lane of the block hot path.
pub fn exp_from_bits(bits: &[u64], rate: f64, out: &mut Vec<f64>) {
    let start = out.len();
    out.resize(start + bits.len(), 0.0);
    let dst = &mut out[start..];
    #[cfg(target_arch = "x86_64")]
    if mode() == MODE_AVX2 {
        // SAFETY: MODE_AVX2 is only ever stored after
        // `is_x86_feature_detected!("avx2")` returned true.
        unsafe { avx2::exp_from_bits(bits, rate, dst) };
        return;
    }
    exp_from_bits_scalar(bits, rate, dst);
}

fn exp_from_bits_scalar(bits: &[u64], rate: f64, dst: &mut [f64]) {
    for (x, &b) in dst.iter_mut().zip(bits) {
        *x = -dln(open_unit_from_bits(b)) / rate;
    }
}

/// Appends `-sigma * dln(open_unit_from_bits(b))` for every `b` in `bits`
/// onto `out` — the GP `ξ = 0` exponential-limit gap lane of the
/// speculative arrival pipeline.
pub fn exp_scale_from_bits(bits: &[u64], sigma: f64, out: &mut Vec<f64>) {
    let start = out.len();
    out.resize(start + bits.len(), 0.0);
    let dst = &mut out[start..];
    #[cfg(target_arch = "x86_64")]
    if mode() == MODE_AVX2 {
        // SAFETY: MODE_AVX2 is only ever stored after
        // `is_x86_feature_detected!("avx2")` returned true.
        unsafe { avx2::exp_scale_from_bits(bits, sigma, dst) };
        return;
    }
    exp_scale_from_bits_scalar(bits, sigma, dst);
}

fn exp_scale_from_bits_scalar(bits: &[u64], sigma: f64, dst: &mut [f64]) {
    for (x, &b) in dst.iter_mut().zip(bits) {
        *x = -sigma * dln(open_unit_from_bits(b));
    }
}

/// Appends `(σ/ξ)(dexp(-ξ · dln(u)) − 1)` for every raw draw in `bits`
/// onto `out` — the GP `ξ > 0` gap lane of the speculative arrival
/// pipeline, bit-identical to `GeneralizedPareto::sample_with` fed the
/// same bits.
pub fn gp_from_bits(bits: &[u64], xi: f64, sigma_over_xi: f64, out: &mut Vec<f64>) {
    let start = out.len();
    out.resize(start + bits.len(), 0.0);
    let dst = &mut out[start..];
    #[cfg(target_arch = "x86_64")]
    if mode() == MODE_AVX2 {
        // SAFETY: AVX2 presence established at dispatch init.
        unsafe { avx2::gp_from_bits(bits, xi, sigma_over_xi, dst) };
        return;
    }
    gp_from_bits_scalar(bits, xi, sigma_over_xi, dst);
}

fn gp_from_bits_scalar(bits: &[u64], xi: f64, sigma_over_xi: f64, dst: &mut [f64]) {
    for (x, &b) in dst.iter_mut().zip(bits) {
        *x = sigma_over_xi * (dexp(-xi * dln(open_unit_from_bits(b))) - 1.0);
    }
}

/// Writes `dln(x) / ln_gamma` for every `x` in `xs` into `dst` — the
/// log-bin lane of the quantile sketch's block push. Elements outside
/// `[lo, f64::MAX]` (underflow, infinities, NaN) are substituted with a
/// placeholder of `1.0` before the log so the lane stays inside
/// [`dln`]'s domain; callers route those elements off the bin path by
/// re-testing `x`, exactly as the scalar per-sample push does.
///
/// # Panics
///
/// Panics if `xs` and `dst` differ in length.
pub fn sketch_bins(xs: &[f64], ln_gamma: f64, lo: f64, dst: &mut [f64]) {
    assert_eq!(xs.len(), dst.len(), "sketch_bins slices must match");
    #[cfg(target_arch = "x86_64")]
    if mode() == MODE_AVX2 {
        // SAFETY: AVX2 presence established at dispatch init.
        unsafe { avx2::sketch_bins(xs, ln_gamma, lo, dst) };
        return;
    }
    sketch_bins_scalar(xs, ln_gamma, lo, dst);
}

fn sketch_bins_scalar(xs: &[f64], ln_gamma: f64, lo: f64, dst: &mut [f64]) {
    for (d, &x) in dst.iter_mut().zip(xs) {
        let x = if x >= lo && x <= f64::MAX { x } else { 1.0 };
        *d = dln(x) / ln_gamma;
    }
}

// ---------------------------------------------------------------------------
// AVX2 twins
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! 4-lane AVX2 implementations. Every lane op is elementwise IEEE-754
    //! identical to the scalar reference (loads, `add/sub/mul/div`, integer
    //! shifts/masks, compares, blends and truncating converts; no FMA
    //! anywhere), so these produce the same bits as the scalar functions
    //! above — verified by the `*_matches_scalar` unit tests and the
    //! cross-crate differential suites.

    use super::{INV_LN2, LG1, LG2, LG3, LG4, LG5, LG6, LG7, LN2_HI, LN2_LO, P1, P2, P3, P4, P5};
    use core::arch::x86_64::*;

    /// Exactly `(b >> 11) as f64 + 0.5) * 2^-53` per lane, i.e.
    /// `open_unit_from_bits`. The u64 -> f64 convert splits into 21 high +
    /// 32 low bits, each converted exactly via the 2^52 magic-bias trick;
    /// their recombination is exact below 2^53, so it rounds identically to
    /// the scalar `as f64` cast.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn open_unit4(raw: __m256i) -> __m256d {
        let b53 = _mm256_srli_epi64(raw, 11);
        let magic = _mm256_set1_epi64x(0x4330_0000_0000_0000); // bits of 2^52
        let two52 = _mm256_set1_pd(4_503_599_627_370_496.0);
        let lo32 = _mm256_and_si256(b53, _mm256_set1_epi64x(0xffff_ffff));
        let hi21 = _mm256_srli_epi64(b53, 32);
        let dlo = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(lo32, magic)), two52);
        let dhi = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(hi21, magic)), two52);
        let v = _mm256_add_pd(_mm256_mul_pd(dhi, _mm256_set1_pd(4_294_967_296.0)), dlo);
        let half = _mm256_set1_pd(0.5);
        let scale = _mm256_set1_pd(1.0 / (1u64 << 53) as f64);
        _mm256_mul_pd(_mm256_add_pd(v, half), scale)
    }

    /// 4-lane [`super::dln`], op-for-op.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dln4(x: __m256d) -> __m256d {
        let bits = _mm256_castpd_si256(x);
        let hx = _mm256_srli_epi64(bits, 32);
        let k0 = _mm256_sub_epi64(_mm256_srli_epi64(hx, 20), _mm256_set1_epi64x(1023));
        let hxm = _mm256_and_si256(hx, _mm256_set1_epi64x(0x000f_ffff));
        let i = _mm256_and_si256(
            _mm256_add_epi64(hxm, _mm256_set1_epi64x(0x95f64)),
            _mm256_set1_epi64x(0x0010_0000),
        );
        let newhi = _mm256_or_si256(hxm, _mm256_xor_si256(i, _mm256_set1_epi64x(0x3ff0_0000)));
        let norm_bits = _mm256_or_si256(
            _mm256_slli_epi64(newhi, 32),
            _mm256_and_si256(bits, _mm256_set1_epi64x(0xffff_ffff)),
        );
        let norm = _mm256_castsi256_pd(norm_bits);
        let k = _mm256_add_epi64(k0, _mm256_srli_epi64(i, 20));
        // Small-signed i64 -> f64: two's-complement add of the 2^52 + 2^51
        // bias, reinterpret, subtract the bias back out. Exact for |k| < 2^51.
        let magic = _mm256_set1_epi64x(0x4338_0000_0000_0000);
        let dk = _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_add_epi64(k, magic)),
            _mm256_set1_pd(6_755_399_441_055_744.0),
        );
        let one = _mm256_set1_pd(1.0);
        let f = _mm256_sub_pd(norm, one);
        let s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
        let z = _mm256_mul_pd(s, s);
        let w = _mm256_mul_pd(z, z);
        let t1 = _mm256_mul_pd(w, madd(w, madd(w, _mm256_set1_pd(LG6), LG4), LG2));
        let t2 = _mm256_mul_pd(
            z,
            madd(w, madd(w, madd(w, _mm256_set1_pd(LG7), LG5), LG3), LG1),
        );
        let r = _mm256_add_pd(t1, t2);
        let hfsq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
        let dk_hi = _mm256_mul_pd(dk, _mm256_set1_pd(LN2_HI));
        let dk_lo = _mm256_mul_pd(dk, _mm256_set1_pd(LN2_LO));
        let inner = _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, r)), dk_lo);
        _mm256_sub_pd(dk_hi, _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f))
    }

    /// `a + w * b` spelled as separate mul and add (the scalar code has no
    /// FMA contraction, so neither may we).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn madd(w: __m256d, b: __m256d, a: f64) -> __m256d {
        _mm256_add_pd(_mm256_set1_pd(a), _mm256_mul_pd(w, b))
    }

    /// 4-lane [`super::dexp`], op-for-op.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dexp4(x: __m256d) -> __m256d {
        let sign_mask = _mm256_set1_pd(-0.0);
        let half = _mm256_or_pd(_mm256_set1_pd(0.5), _mm256_and_pd(x, sign_mask));
        let v = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(INV_LN2), x), half);
        let k32 = _mm256_cvttpd_epi32(v); // truncation == scalar `as i32`
        let t = _mm256_cvtepi32_pd(k32);
        let hi = _mm256_sub_pd(x, _mm256_mul_pd(t, _mm256_set1_pd(LN2_HI)));
        let lo = _mm256_mul_pd(t, _mm256_set1_pd(LN2_LO));
        let r = _mm256_sub_pd(hi, lo);
        let rr = _mm256_mul_pd(r, r);
        let poly = madd(
            rr,
            madd(rr, madd(rr, madd(rr, _mm256_set1_pd(P5), P4), P3), P2),
            P1,
        );
        let c = _mm256_sub_pd(r, _mm256_mul_pd(rr, poly));
        let q = _mm256_div_pd(_mm256_mul_pd(r, c), _mm256_sub_pd(_mm256_set1_pd(2.0), c));
        let y = _mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_sub_pd(_mm256_sub_pd(lo, q), hi));
        let k64 = _mm256_cvtepi32_epi64(k32);
        let scaled = _mm256_add_epi64(_mm256_castpd_si256(y), _mm256_slli_epi64(k64, 52));
        _mm256_castsi256_pd(scaled)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn exp_from_bits(bits: &[u64], rate: f64, dst: &mut [f64]) {
        let n = bits.len();
        let vrate = _mm256_set1_pd(rate);
        let neg = _mm256_set1_pd(-0.0);
        let mut i = 0;
        while i + 4 <= n {
            let raw = _mm256_loadu_si256(bits.as_ptr().add(i).cast());
            let u = open_unit4(raw);
            let l = _mm256_xor_pd(dln4(u), neg); // -dln(u), exact sign flip
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_div_pd(l, vrate));
            i += 4;
        }
        super::exp_from_bits_scalar(&bits[i..], rate, &mut dst[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn exp_scale_from_bits(bits: &[u64], sigma: f64, dst: &mut [f64]) {
        let n = bits.len();
        let vnsig = _mm256_set1_pd(-sigma);
        let mut i = 0;
        while i + 4 <= n {
            let raw = _mm256_loadu_si256(bits.as_ptr().add(i).cast());
            let u = open_unit4(raw);
            // Scalar is `-sigma * dln(u)`: one multiply by (-sigma).
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_mul_pd(vnsig, dln4(u)));
            i += 4;
        }
        super::exp_scale_from_bits_scalar(&bits[i..], sigma, &mut dst[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn gp_from_bits(bits: &[u64], xi: f64, sigma_over_xi: f64, dst: &mut [f64]) {
        let n = bits.len();
        let vnxi = _mm256_set1_pd(-xi);
        let vsox = _mm256_set1_pd(sigma_over_xi);
        let one = _mm256_set1_pd(1.0);
        let mut i = 0;
        while i + 4 <= n {
            let raw = _mm256_loadu_si256(bits.as_ptr().add(i).cast());
            let u = open_unit4(raw);
            // Scalar: sigma_over_xi * (dexp((-xi) * dln(u)) - 1.0).
            let e = dexp4(_mm256_mul_pd(vnxi, dln4(u)));
            _mm256_storeu_pd(
                dst.as_mut_ptr().add(i),
                _mm256_mul_pd(vsox, _mm256_sub_pd(e, one)),
            );
            i += 4;
        }
        super::gp_from_bits_scalar(&bits[i..], xi, sigma_over_xi, &mut dst[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sketch_bins(xs: &[f64], ln_gamma: f64, lo: f64, dst: &mut [f64]) {
        let n = xs.len();
        let vlo = _mm256_set1_pd(lo);
        let vmax = _mm256_set1_pd(f64::MAX);
        let one = _mm256_set1_pd(1.0);
        let vg = _mm256_set1_pd(ln_gamma);
        let mut i = 0;
        while i + 4 <= n {
            let x = _mm256_loadu_pd(xs.as_ptr().add(i));
            // Ordered compares are false on NaN, so the placeholder
            // blend routes NaN, ±inf and sub-`lo` lanes to 1.0 exactly
            // like the scalar `x >= lo && x <= MAX` select.
            let ok = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(x, vlo),
                _mm256_cmp_pd::<_CMP_LE_OQ>(x, vmax),
            );
            let safe = _mm256_blendv_pd(one, x, ok);
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_div_pd(dln4(safe), vg));
            i += 4;
        }
        super::sketch_bins_scalar(&xs[i..], ln_gamma, lo, &mut dst[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn ulp_diff(a: f64, b: f64) -> u64 {
        let ia = a.to_bits() as i64;
        let ib = b.to_bits() as i64;
        ia.abs_diff(ib)
    }

    #[test]
    fn dln_matches_libm_within_ulps() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x51_3d);
        for _ in 0..200_000 {
            let u = open_unit_from_bits(rng.next_u64());
            let d = ulp_diff(dln(u), u.ln());
            assert!(d <= 4, "u={u} dln={} ln={} ulps={d}", dln(u), u.ln());
        }
        // Domain extremes of open_unit and neighbors of 1. (`u64::MAX` is
        // excluded: the top-53-bits-set draw rounds open_unit to exactly
        // 1.0, a pre-existing 2^-53 edge the staging asserts reject.)
        for u in [
            open_unit_from_bits(0),
            open_unit_from_bits(u64::MAX >> 1),
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            2.0,
            f64::MIN_POSITIVE,
            1e300,
        ] {
            let d = ulp_diff(dln(u), u.ln());
            assert!(d <= 4, "u={u} ulps={d}");
        }
        assert_eq!(dln(1.0), 0.0);
    }

    #[test]
    fn dexp_matches_libm_within_ulps() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0e4b);
        for _ in 0..200_000 {
            let x = (open_unit_from_bits(rng.next_u64()) - 0.5) * 80.0;
            let d = ulp_diff(dexp(x), x.exp());
            assert!(d <= 4, "x={x} dexp={} exp={} ulps={d}", dexp(x), x.exp());
        }
        assert_eq!(dexp(0.0), 1.0);
        // GP sampler domain: -xi * dln(u) for xi in (0,1), u in (0,1).
        for x in [1e-300, 1e-17, 0.3465, 0.7, 5.62, 36.0, -36.0, 690.0, -690.0] {
            let d = ulp_diff(dexp(x), x.exp());
            assert!(d <= 4, "x={x} ulps={d}");
        }
    }

    #[test]
    fn round_trip_dexp_dln() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50_000 {
            let u = open_unit_from_bits(rng.next_u64());
            let rt = dexp(dln(u));
            // ln's rounding error is amplified by exp's derivative, so the
            // relative tolerance scales with |ln u|.
            let tol = (4.0 + 4.0 * dln(u).abs()) * f64::EPSILON * u;
            assert!((rt - u).abs() <= tol, "u={u} rt={rt}");
        }
    }

    fn random_bits(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    const LENS: [usize; 7] = [0, 1, 3, 4, 7, 37, 1024];

    fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "{what}"
        );
    }

    #[test]
    fn bits_kernels_match_scalar() {
        let (xi, sox) = (0.15, (1.0 - 0.15) / 56_250.0 / 0.15);
        for &n in &LENS {
            let bits = random_bits(n, 4_200 + n as u64);
            let mut scalar_out = vec![0.0; n];

            let mut simd_out = Vec::new();
            exp_from_bits(&bits, 80_000.0, &mut simd_out);
            exp_from_bits_scalar(&bits, 80_000.0, &mut scalar_out);
            assert_same_bits(&simd_out, &scalar_out, &format!("exp n={n}"));

            let mut simd_out = Vec::new();
            exp_scale_from_bits(&bits, 1.6e-5, &mut simd_out);
            exp_scale_from_bits_scalar(&bits, 1.6e-5, &mut scalar_out);
            assert_same_bits(&simd_out, &scalar_out, &format!("exp_scale n={n}"));

            let mut simd_out = Vec::new();
            gp_from_bits(&bits, xi, sox, &mut simd_out);
            gp_from_bits_scalar(&bits, xi, sox, &mut scalar_out);
            assert_same_bits(&simd_out, &scalar_out, &format!("gp n={n}"));
        }
    }

    #[test]
    fn sketch_bins_kernel_matches_scalar() {
        let ln_gamma = 2.0f64 * 0.01 / (1.0 - 0.01); // ~ln(gamma) at alpha=0.01
        let lo = 1e-12;
        for &n in &LENS {
            // Latency-shaped values with the edge cases the lane must
            // route through the placeholder blend.
            let mut xs: Vec<f64> = random_bits(n, 7_700 + n as u64)
                .iter()
                .map(|&b| 1e-5 * (1.0 + open_unit_from_bits(b) * 1e4))
                .collect();
            for (i, bad) in [0.0, 1e-300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]
                .into_iter()
                .enumerate()
            {
                if i < xs.len() {
                    xs[i] = bad;
                }
            }
            let mut simd_out = vec![0.0; n];
            sketch_bins(&xs, ln_gamma, lo, &mut simd_out);
            let mut scalar_out = vec![0.0; n];
            sketch_bins_scalar(&xs, ln_gamma, lo, &mut scalar_out);
            assert_same_bits(&simd_out, &scalar_out, &format!("n={n}"));
        }
    }

    #[test]
    fn forced_scalar_is_bit_identical() {
        let bits = random_bits(1024, 0xf0);
        let mut auto_out = Vec::new();
        exp_from_bits(&bits, 80_000.0, &mut auto_out);
        set_forced_scalar(true);
        let mut forced_out = Vec::new();
        exp_from_bits(&bits, 80_000.0, &mut forced_out);
        set_forced_scalar(false);
        assert_same_bits(&auto_out, &forced_out, "forced scalar");
    }
}
