//! Batched row-bucket kernels for the hash-then-update split.
//!
//! The Count-Min hot loop spends most of its time in
//! `PairwiseHash::bucket`: a Mersenne-modular affine evaluation (one
//! `u128` multiply) followed by a hardware divide (`% width` with a
//! runtime divisor). LLVM cannot autovectorize either, so the scalar loop
//! is stuck at roughly one divide per item per row. This module computes
//! **all row offsets for a lane of fingerprints in one pass**:
//!
//! - the scalar variant simply calls [`PairwiseHash::bucket`] per element
//!   and is the semantic source of truth;
//! - the AVX2 variant evaluates four lanes at a time: `x mod p` by the
//!   Mersenne fold `(x & p) + (x >> 61)`, the 64×64→128 product by 32-bit
//!   limb decomposition over `_mm256_mul_epu32`, the reduction by
//!   `(lo & p) + ((lo >> 61) | (hi << 3))`, and the exact `% width` by a
//!   Granlund–Montgomery style magic multiply (`m = ⌊2⁶⁴/width⌋`,
//!   `q̂ = mulhi(e, m)`, one conditional fix-up — exact for all
//!   `e < 2⁶¹` because the truncation deficit is below `2⁶¹/2⁶⁴ < 1`);
//! - the AVX-512 (F+DQ) variant runs the same recipe eight lanes wide,
//!   with native 64-bit low multiplies (`vpmullq`), mask-register
//!   conditional subtracts, a narrower `mulhi` exploiting the < 2⁶¹
//!   operand range, and `vpmovqd` packing — roughly half the µops per
//!   item of the AVX2 body.
//!
//! Every step mirrors the scalar `mul_mod`/`add_mod` arithmetic
//! operation-for-operation, so the outputs are bit-identical — pinned by
//! the differential tests below and by `tests/kernel_equivalence.rs`.

use crate::hashing::{PairwiseHash, MERSENNE_P};
use ms_core::simd::Isa;

/// Widest bucket a kernel will produce: offsets are staged as `u32`, so
/// callers with `width > u32::MAX` must keep the per-item path.
pub const MAX_KERNEL_WIDTH: usize = u32::MAX as usize;

/// Scalar reference: `out[i] = h.bucket(xs[i], width)`.
///
/// Panics if `out` is shorter than `xs` or `width` exceeds
/// [`MAX_KERNEL_WIDTH`].
pub fn row_buckets_scalar(h: &PairwiseHash, width: usize, xs: &[u64], out: &mut [u32]) {
    assert!(width <= MAX_KERNEL_WIDTH, "row kernel width overflows u32");
    for (o, &x) in out.iter_mut().zip(xs.iter()) {
        *o = h.bucket(x, width) as u32;
    }
}

/// Compute a lane of row buckets using the given ISA.
///
/// Falls back to scalar when no vector variant applies (non-x86 hosts,
/// `width < 2` where the magic multiplier does not exist).
pub fn row_buckets_with(isa: Isa, h: &PairwiseHash, width: usize, xs: &[u64], out: &mut [u32]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if (2..=MAX_KERNEL_WIDTH).contains(&width) => {
            let c = h.coefficients();
            unsafe { avx512::row_buckets_avx512(c[0], c[1], width as u64, xs, out) }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if (2..=MAX_KERNEL_WIDTH).contains(&width) => {
            let c = h.coefficients();
            unsafe { avx2::row_buckets_avx2(c[0], c[1], width as u64, xs, out) }
        }
        _ => row_buckets_scalar(h, width, xs, out),
    }
}

/// `e % width` for every `e < 2⁶¹` in `es`, through the given ISA's
/// vector remainder step alone (scalar `%` elsewhere): the step whose
/// exactness rests on the magic multiplier's error bound. Every value
/// goes through the vector body; the last lane group is padded.
#[cfg(test)]
fn rem_width_with(isa: Isa, width: u64, es: &[u64]) -> Vec<u64> {
    #[cfg(target_arch = "x86_64")]
    if (2..=MAX_KERNEL_WIDTH as u64).contains(&width) && matches!(isa, Isa::Avx2 | Isa::Avx512) {
        let mut padded = es.to_vec();
        padded.resize(es.len().div_ceil(8) * 8, 0);
        let mut out = vec![0; padded.len()];
        match isa {
            // SAFETY: `Isa::Avx512` is listed by `supported_isas` only on
            // hosts with AVX-512 F+DQ; the width is in range and `padded`
            // is a whole number of lane groups.
            Isa::Avx512 => unsafe { avx512::rem_width_avx512(width, &padded, &mut out) },
            // SAFETY: as above, for AVX2 and groups of four.
            _ => unsafe { avx2::rem_width_avx2(width, &padded, &mut out) },
        }
        out.truncate(es.len());
        return out;
    }
    es.iter().map(|e| e % width).collect()
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::MERSENNE_P;
    use std::arch::x86_64::*;

    const MASK32: u64 = 0xFFFF_FFFF;

    /// Full 64×64→128 multiply per lane via 32-bit limbs.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_wide(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
        let mask = _mm256_set1_epi64x(MASK32 as i64);
        let ah = _mm256_srli_epi64(a, 32);
        let bh = _mm256_srli_epi64(b, 32);
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, bh);
        let hl = _mm256_mul_epu32(ah, b);
        let hh = _mm256_mul_epu32(ah, bh);
        // Carry assembly: each partial stays below 2⁶⁴ by construction.
        let mid1 = _mm256_add_epi64(lh, _mm256_srli_epi64(ll, 32));
        let mid2 = _mm256_add_epi64(hl, _mm256_and_si256(mid1, mask));
        let lo = _mm256_or_si256(_mm256_slli_epi64(mid2, 32), _mm256_and_si256(ll, mask));
        let hi = _mm256_add_epi64(
            hh,
            _mm256_add_epi64(_mm256_srli_epi64(mid1, 32), _mm256_srli_epi64(mid2, 32)),
        );
        (lo, hi)
    }

    /// `v >= bound ? v - bound : v` for values below `2⁶³` (signed compare
    /// is safe there). `bound_m1` is `bound - 1`.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cond_sub(v: __m256i, bound: __m256i, bound_m1: __m256i) -> __m256i {
        let ge = _mm256_cmpgt_epi64(v, bound_m1);
        _mm256_sub_epi64(v, _mm256_and_si256(ge, bound))
    }

    /// Broadcast constants shared by every lane of one row.
    struct RowConsts {
        pv: __m256i,
        pm1: __m256i,
        a0v: __m256i,
        a1v: __m256i,
        wv: __m256i,
        wm1: __m256i,
        mv: __m256i,
        pack: __m256i,
    }

    /// One 4-lane bucket evaluation: affine Mersenne hash + exact
    /// magic-multiply `% width`, packed to the even dwords.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bucket4(k: &RowConsts, x: __m256i) -> __m128i {
        // x mod p by Mersenne fold (2⁶¹ ≡ 1 mod p).
        let folded = _mm256_add_epi64(_mm256_and_si256(x, k.pv), _mm256_srli_epi64(x, 61));
        let xm = cond_sub(folded, k.pv, k.pm1);
        // e = (a1 · xm mod p) + a0 mod p, mirroring mul_mod/add_mod.
        let (lo, hi) = mul_wide(k.a1v, xm);
        let red = _mm256_add_epi64(
            _mm256_and_si256(lo, k.pv),
            _mm256_or_si256(_mm256_srli_epi64(lo, 61), _mm256_slli_epi64(hi, 3)),
        );
        let mut e = cond_sub(red, k.pv, k.pm1);
        e = cond_sub(_mm256_add_epi64(e, k.a0v), k.pv, k.pm1);
        let r = rem_width(k, e);
        // Each remainder fits u32: gather the even dwords.
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(r, k.pack))
    }

    /// `e % width` for `e < 2⁶¹`: q̂ = mulhi(e, magic) is floor(e/width)
    /// or one less; a single conditional subtract makes the remainder
    /// exact.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn rem_width(k: &RowConsts, e: __m256i) -> __m256i {
        let (_, q) = mul_wide(e, k.mv);
        // low 64 bits of q · width, width < 2³² so two muls suffice.
        let qw = _mm256_add_epi64(
            _mm256_mul_epu32(q, k.wv),
            _mm256_slli_epi64(_mm256_mul_epu32(_mm256_srli_epi64(q, 32), k.wv), 32),
        );
        cond_sub(_mm256_sub_epi64(e, qw), k.wv, k.wm1)
    }

    impl RowConsts {
        /// # Safety
        /// AVX2 must be available; `2 <= width <= u32::MAX`.
        #[target_feature(enable = "avx2")]
        unsafe fn new(a0: u64, a1: u64, width: u64) -> Self {
            debug_assert!((2..=MASK32).contains(&width));
            let magic = ((1u128 << 64) / width as u128) as u64;
            RowConsts {
                pv: _mm256_set1_epi64x(MERSENNE_P as i64),
                pm1: _mm256_set1_epi64x((MERSENNE_P - 1) as i64),
                a0v: _mm256_set1_epi64x(a0 as i64),
                a1v: _mm256_set1_epi64x(a1 as i64),
                wv: _mm256_set1_epi64x(width as i64),
                wm1: _mm256_set1_epi64x((width - 1) as i64),
                mv: _mm256_set1_epi64x(magic as i64),
                pack: _mm256_set_epi32(0, 0, 0, 0, 6, 4, 2, 0),
            }
        }
    }

    /// `out[i] = es[i] % width` through [`rem_width`] alone, four lanes
    /// at a time.
    ///
    /// # Safety
    /// AVX2 must be available; `2 <= width <= u32::MAX`; every
    /// `e < 2⁶¹`; `es.len()` is a multiple of 4 and `out` as long.
    #[cfg(test)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn rem_width_avx2(width: u64, es: &[u64], out: &mut [u64]) {
        let k = RowConsts::new(0, 0, width);
        for (e, r) in es.chunks_exact(4).zip(out.chunks_exact_mut(4)) {
            let e = _mm256_loadu_si256(e.as_ptr() as *const __m256i);
            _mm256_storeu_si256(r.as_mut_ptr() as *mut __m256i, rem_width(&k, e));
        }
    }

    /// Affine Mersenne hash + exact magic-multiply `% width` over a slice.
    ///
    /// The main loop handles 16 items per iteration as four *independent*
    /// [`bucket4`] chains: one chain alone is ~40 cycles of serial
    /// latency, so interleaving four keeps the multiply ports busy and
    /// roughly doubles throughput on latency-bound hosts.
    ///
    /// # Safety
    /// AVX2 must be available; `2 <= width <= u32::MAX`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_buckets_avx2(a0: u64, a1: u64, width: u64, xs: &[u64], out: &mut [u32]) {
        let k = RowConsts::new(a0, a1, width);
        let n = xs.len().min(out.len());
        let mut i = 0;
        while i + 16 <= n {
            let x0 = _mm256_loadu_si256(xs.as_ptr().add(i) as *const __m256i);
            let x1 = _mm256_loadu_si256(xs.as_ptr().add(i + 4) as *const __m256i);
            let x2 = _mm256_loadu_si256(xs.as_ptr().add(i + 8) as *const __m256i);
            let x3 = _mm256_loadu_si256(xs.as_ptr().add(i + 12) as *const __m256i);
            let r0 = bucket4(&k, x0);
            let r1 = bucket4(&k, x1);
            let r2 = bucket4(&k, x2);
            let r3 = bucket4(&k, x3);
            _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, r0);
            _mm_storeu_si128(out.as_mut_ptr().add(i + 4) as *mut __m128i, r1);
            _mm_storeu_si128(out.as_mut_ptr().add(i + 8) as *mut __m128i, r2);
            _mm_storeu_si128(out.as_mut_ptr().add(i + 12) as *mut __m128i, r3);
            i += 16;
        }
        while i + 4 <= n {
            let x = _mm256_loadu_si256(xs.as_ptr().add(i) as *const __m256i);
            let r = bucket4(&k, x);
            _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, r);
            i += 4;
        }
        let h = crate::hashing::PairwiseHash::from_coefficients([a0, a1]);
        for j in i..n {
            out[j] = h.bucket(xs[j], width as usize) as u32;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::MERSENNE_P;
    use std::arch::x86_64::*;

    const MASK32: u64 = 0xFFFF_FFFF;

    /// `v >= bound ? v - bound : v` via a mask-register unsigned compare —
    /// no sign-bias tricks needed on AVX-512.
    ///
    /// # Safety
    /// AVX-512 F must be available.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn cond_sub(v: __m512i, bound: __m512i) -> __m512i {
        let ge = _mm512_cmpge_epu64_mask(v, bound);
        _mm512_mask_sub_epi64(v, ge, v, bound)
    }

    /// Exact `mulhi(a, b)` for `a < 2⁶²`, `b ≤ 2⁶³`, via 32-bit limbs.
    ///
    /// With `a·b = hh·2⁶⁴ + (lh + hl)·2³² + ll` and
    /// `S = lh + hl + (ll >> 32)`, the top word is exactly
    /// `hh + (S >> 32)`: the discarded `(S & m)·2³² + (ll & m)` never
    /// carries past 2⁶⁴, and `S` itself cannot wrap because the operand
    /// bounds keep `lh < 2⁶³` and `hl < 2⁶¹`. `b_lo`/`b_hi` are the
    /// broadcast low/high dwords of `b`; `a_hi = a >> 32` is hoisted by
    /// the caller so it can be shared.
    ///
    /// # Safety
    /// AVX-512 F must be available.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn mulhi_narrow(a: __m512i, a_hi: __m512i, b_lo: __m512i, b_hi: __m512i) -> __m512i {
        let ll = _mm512_mul_epu32(a, b_lo);
        let lh = _mm512_mul_epu32(a, b_hi);
        let hl = _mm512_mul_epu32(a_hi, b_lo);
        let hh = _mm512_mul_epu32(a_hi, b_hi);
        let s = _mm512_add_epi64(_mm512_add_epi64(lh, hl), _mm512_srli_epi64(ll, 32));
        _mm512_add_epi64(hh, _mm512_srli_epi64(s, 32))
    }

    /// Broadcast constants shared by every lane of one row.
    struct RowConsts {
        pv: __m512i,
        a0v: __m512i,
        a1v: __m512i,
        a1h: __m512i,
        wv: __m512i,
        mv: __m512i,
        mh: __m512i,
    }

    /// One 8-lane bucket evaluation, packed to eight `u32`s.
    ///
    /// # Safety
    /// AVX-512 F+DQ must be available.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn bucket8(k: &RowConsts, x: __m512i) -> __m256i {
        // x mod p by Mersenne fold (2⁶¹ ≡ 1 mod p).
        let folded = _mm512_add_epi64(_mm512_and_si512(x, k.pv), _mm512_srli_epi64(x, 61));
        let xm = cond_sub(folded, k.pv);
        // a1 · xm: native 64-bit low half, limb mulhi for the top
        // (both operands < p < 2⁶¹, well inside mulhi_narrow's bounds).
        let lo = _mm512_mullo_epi64(k.a1v, xm);
        let hi = mulhi_narrow(xm, _mm512_srli_epi64(xm, 32), k.a1v, k.a1h);
        // Mersenne reduction, then + a0, mirroring mul_mod/add_mod.
        let red = _mm512_add_epi64(
            _mm512_and_si512(lo, k.pv),
            _mm512_or_si512(_mm512_srli_epi64(lo, 61), _mm512_slli_epi64(hi, 3)),
        );
        let e = cond_sub(_mm512_add_epi64(cond_sub(red, k.pv), k.a0v), k.pv);
        // Remainders fit u32: truncating vpmovqd pack.
        _mm512_cvtepi64_epi32(rem_width(k, e))
    }

    /// `e % width`: q̂ = mulhi(e, magic) is floor(e/width) or one less
    /// (e < 2⁶¹, magic ≤ 2⁶³); one conditional subtract makes it exact.
    ///
    /// # Safety
    /// AVX-512 F+DQ must be available.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn rem_width(k: &RowConsts, e: __m512i) -> __m512i {
        let q = mulhi_narrow(e, _mm512_srli_epi64(e, 32), k.mv, k.mh);
        cond_sub(_mm512_sub_epi64(e, _mm512_mullo_epi64(q, k.wv)), k.wv)
    }

    impl RowConsts {
        /// # Safety
        /// AVX-512 F must be available; `2 <= width <= u32::MAX`.
        #[target_feature(enable = "avx512f")]
        unsafe fn new(a0: u64, a1: u64, width: u64) -> Self {
            debug_assert!((2..=MASK32).contains(&width));
            let magic = ((1u128 << 64) / width as u128) as u64;
            RowConsts {
                pv: _mm512_set1_epi64(MERSENNE_P as i64),
                a0v: _mm512_set1_epi64(a0 as i64),
                a1v: _mm512_set1_epi64(a1 as i64),
                a1h: _mm512_set1_epi64((a1 >> 32) as i64),
                wv: _mm512_set1_epi64(width as i64),
                mv: _mm512_set1_epi64(magic as i64),
                mh: _mm512_set1_epi64((magic >> 32) as i64),
            }
        }
    }

    /// `out[i] = es[i] % width` through [`rem_width`] alone, eight lanes
    /// at a time.
    ///
    /// # Safety
    /// AVX-512 F+DQ must be available; `2 <= width <= u32::MAX`; every
    /// `e < 2⁶¹`; `es.len()` is a multiple of 8 and `out` as long.
    #[cfg(test)]
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn rem_width_avx512(width: u64, es: &[u64], out: &mut [u64]) {
        let k = RowConsts::new(0, 0, width);
        for (e, r) in es.chunks_exact(8).zip(out.chunks_exact_mut(8)) {
            let e = _mm512_loadu_si512(e.as_ptr() as *const __m512i);
            _mm512_storeu_si512(r.as_mut_ptr() as *mut __m512i, rem_width(&k, e));
        }
    }

    /// Eight-lane affine Mersenne hash + exact magic-multiply `% width`,
    /// two independent [`bucket8`] chains per iteration for ILP.
    ///
    /// # Safety
    /// AVX-512 F+DQ must be available; `2 <= width <= u32::MAX`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn row_buckets_avx512(a0: u64, a1: u64, width: u64, xs: &[u64], out: &mut [u32]) {
        let k = RowConsts::new(a0, a1, width);
        let n = xs.len().min(out.len());
        let mut i = 0;
        while i + 16 <= n {
            let x0 = _mm512_loadu_si512(xs.as_ptr().add(i) as *const __m512i);
            let x1 = _mm512_loadu_si512(xs.as_ptr().add(i + 8) as *const __m512i);
            let r0 = bucket8(&k, x0);
            let r1 = bucket8(&k, x1);
            _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, r0);
            _mm256_storeu_si256(out.as_mut_ptr().add(i + 8) as *mut __m256i, r1);
            i += 16;
        }
        while i + 8 <= n {
            let x = _mm512_loadu_si512(xs.as_ptr().add(i) as *const __m512i);
            let r = bucket8(&k, x);
            _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, r);
            i += 8;
        }
        let h = crate::hashing::PairwiseHash::from_coefficients([a0, a1]);
        for j in i..n {
            out[j] = h.bucket(xs[j], width as usize) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::rng::Rng64;
    use ms_core::simd::{active_isa, supported_isas};

    const SEEDS: [u64; 3] = [0xF417_5EED, 0xB0B5_CAFE, 0x2026_0806];

    #[test]
    fn every_vector_row_kernel_matches_scalar_bit_for_bit() {
        for &seed in &SEEDS {
            let h = PairwiseHash::new(seed);
            let mut rng = Rng64::new(seed ^ 0xD15);
            // Lengths straddle the lane and unroll boundaries; widths
            // include primes, powers of two, and the u32 extremes of the
            // magic divider.
            let xs: Vec<u64> = (0..131).map(|_| rng.next_u64()).collect();
            for width in [
                2usize,
                3,
                7,
                272,
                2719,
                4096,
                (1 << 31) - 1,
                u32::MAX as usize,
            ] {
                let mut want = vec![0u32; xs.len()];
                row_buckets_scalar(&h, width, &xs, &mut want);
                for isa in supported_isas() {
                    let mut got = vec![0u32; xs.len()];
                    row_buckets_with(isa, &h, width, &xs, &mut got);
                    assert_eq!(want, got, "seed {seed:#x} width {width} isa {isa:?}");
                }
            }
        }
    }

    #[test]
    fn extreme_fingerprints_hit_the_mersenne_fold_edges() {
        let h = PairwiseHash::new(0xF417_5EED);
        let xs = [
            0,
            1,
            MERSENNE_P - 1,
            MERSENNE_P,
            MERSENNE_P + 1,
            u64::MAX,
            u64::MAX - 1,
            (1 << 61) | 0x1FFF_FFFF_FFFF_FFFF,
        ];
        for width in [2usize, 5, 272] {
            let mut want = vec![0u32; xs.len()];
            row_buckets_scalar(&h, width, &xs, &mut want);
            for isa in supported_isas() {
                let mut got = vec![0u32; xs.len()];
                row_buckets_with(isa, &h, width, &xs, &mut got);
                assert_eq!(want, got, "width {width} isa {isa:?}");
            }
        }
    }

    /// The vector `e % width` at the edges the magic multiplier's proof
    /// is about: `k·w − 1`, `k·w`, `k·w + 1` for `k` near 0 and near
    /// `⌊(2⁶¹ − 1)/w⌋`, and `e = 2⁶¹ − 1`, for the smallest widths, the
    /// Count-Min widths in use, and the largest ones a `u32` holds.
    #[test]
    fn remainder_step_is_exact_at_every_width_edge() {
        const E_MAX: u64 = (1 << 61) - 1;
        for width in [2u64, 3, 272, 2719, (1 << 31) - 1, u32::MAX as u64] {
            let top = E_MAX / width;
            let mut es = vec![E_MAX];
            for k in [0, 1, 2, 3, top - 2, top - 1, top, top + 1] {
                for d in [-1i64, 0, 1] {
                    es.extend((k * width).checked_add_signed(d).filter(|&e| e <= E_MAX));
                }
            }
            let want: Vec<u64> = es.iter().map(|e| e % width).collect();
            for isa in supported_isas() {
                assert_eq!(
                    rem_width_with(isa, width, &es),
                    want,
                    "width {width} isa {isa:?}"
                );
            }
        }
    }

    #[test]
    fn width_one_falls_back_to_scalar() {
        let h = PairwiseHash::new(3);
        let xs = [1u64, 2, 3, 4, 5];
        for isa in supported_isas().into_iter().chain([active_isa()]) {
            let mut out = vec![9u32; 5];
            row_buckets_with(isa, &h, 1, &xs, &mut out);
            assert!(out.iter().all(|&b| b == 0), "isa {isa:?}");
        }
    }
}
