//! Runtime ISA dispatch and batched slice kernels.
//!
//! Two hot loops of the workspace are flat passes over `u64` slices: the
//! Count-Min cell adds of a sketch merge ([`add_slices`],
//! [`add_slices_multi`]) and the quantile summaries' same-weight merge
//! ([`merge_keep_parity_u64`]). This module gives them one home: a scalar
//! implementation that is the
//! **single source of truth for semantics**, plus `std::arch` variants
//! (x86_64 AVX2/AVX-512) selected once at startup by
//! [`active_isa`]. Every vector variant must produce bit-identical output
//! to its scalar twin; the differential tests at the bottom of this file
//! and the workspace-level `tests/kernel_equivalence.rs` suite pin that.
//!
//! Dispatch rules:
//!
//! - `MS_FORCE_SCALAR=1` in the environment forces the scalar path
//!   everywhere, so CI can exercise both paths on any host.
//! - On x86_64, AVX-512 (F+DQ) is preferred, then AVX2, per
//!   `is_x86_feature_detected!`.
//! - Anything else — aarch64 included — runs scalar.
//!
//! The add kernels in this file deliberately serve [`Isa::Avx512`] with
//! their 256-bit bodies: flat adds are load/store-bound, so wider lanes
//! buy nothing here. The tier exists for the ALU-bound hash
//! kernels in `ms-sketches::batch`, where 8 × u64 lanes, native 64-bit
//! multiplies and mask registers pay off, and for the keep-parity merge
//! behind the quantile summaries' same-weight merge
//! ([`merge_keep_parity_u64`]), a bitonic network built from 64-bit
//! unsigned min/max and compress, which only AVX-512 has.
//!
//! The kernels deliberately operate on raw slices rather than summary
//! types: the summary crates stage their work into fixed-width lane
//! buffers (hash-then-update split) and hand the flat arrays here.

use std::sync::OnceLock;

/// Instruction set selected for the batched kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar Rust — the semantic reference.
    Scalar,
    /// x86_64 AVX2 (256-bit lanes, 4 × u64).
    Avx2,
    /// x86_64 AVX-512 F+DQ (512-bit lanes, 8 × u64, mask registers).
    Avx512,
}

impl Isa {
    /// Short lowercase label for logs and bench records.
    pub fn label(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// True when this ISA has dedicated vector kernels (i.e. is not the
    /// scalar reference).
    pub fn is_vector(self) -> bool {
        !matches!(self, Isa::Scalar)
    }
}

/// True when `MS_FORCE_SCALAR=1` (or any non-empty, non-`0` value) is set.
pub fn force_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("MS_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

fn detect() -> Isa {
    if force_scalar() {
        return Isa::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
            return Isa::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
    }
    Isa::Scalar
}

/// The ISA the dispatched kernels will use on this host, detected once.
pub fn active_isa() -> Isa {
    static ACTIVE: OnceLock<Isa> = OnceLock::new();
    *ACTIVE.get_or_init(detect)
}

/// Every ISA whose kernels can run on this host, scalar first.
///
/// Unlike [`active_isa`] this ignores `MS_FORCE_SCALAR` — explicit
/// `*_with` calls are always legal — so differential tests can pin each
/// vector tier against the scalar reference, not just the preferred one.
pub fn supported_isas() -> Vec<Isa> {
    #[allow(unused_mut)]
    let mut isas = vec![Isa::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            isas.push(Isa::Avx2);
        }
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
            isas.push(Isa::Avx512);
        }
    }
    isas
}

// ---------------------------------------------------------------------------
// add_slices: dst[i] += src[i]
// ---------------------------------------------------------------------------

/// Scalar reference: element-wise wrapping add of `src` into `dst`.
///
/// Panics if the lengths differ — callers align shapes before batching.
pub fn add_slices_scalar(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "add_slices length mismatch");
    for (a, b) in dst.iter_mut().zip(src.iter()) {
        *a = a.wrapping_add(*b);
    }
}

/// Element-wise `dst[i] += src[i]` using the given ISA.
pub fn add_slices_with(isa: Isa, dst: &mut [u64], src: &[u64]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 => unsafe { x86::add_slices_avx2(dst, src) },
        _ => add_slices_scalar(dst, src),
    }
}

/// Element-wise `dst[i] += src[i]` on the host-detected ISA.
pub fn add_slices(dst: &mut [u64], src: &[u64]) {
    add_slices_with(active_isa(), dst, src)
}

// ---------------------------------------------------------------------------
// add_slices_multi: dst[i] += sum_k srcs[k][i]  (fused multiway merge)
// ---------------------------------------------------------------------------

/// Scalar reference: fused multiway add — one pass over `dst`, summing the
/// matching cell of every source. Bit-identical to folding the sources in
/// sequentially (u64 wrapping adds commute and associate), but touches
/// `dst` once instead of `srcs.len()` times.
pub fn add_slices_multi_scalar(dst: &mut [u64], srcs: &[&[u64]]) {
    for s in srcs {
        assert_eq!(dst.len(), s.len(), "add_slices_multi length mismatch");
    }
    for (i, a) in dst.iter_mut().enumerate() {
        let mut acc = *a;
        for s in srcs {
            acc = acc.wrapping_add(s[i]);
        }
        *a = acc;
    }
}

/// Fused multiway `dst[i] += sum_k srcs[k][i]` using the given ISA.
pub fn add_slices_multi_with(isa: Isa, dst: &mut [u64], srcs: &[&[u64]]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 => unsafe { x86::add_slices_multi_avx2(dst, srcs) },
        _ => add_slices_multi_scalar(dst, srcs),
    }
}

/// Fused multiway add on the host-detected ISA.
pub fn add_slices_multi(dst: &mut [u64], srcs: &[&[u64]]) {
    add_slices_multi_with(active_isa(), dst, srcs)
}

// ---------------------------------------------------------------------------
// merge_keep_parity: the §4.1 same-weight merge of two sorted buffers
// ---------------------------------------------------------------------------

/// How many of `total` merged positions `offset, offset + 2, …` keeps.
fn kept_len(total: usize, offset: usize) -> usize {
    total.saturating_sub(offset).div_ceil(2)
}

/// Positions `offset, offset + 2, …` (`offset` is 0 or 1) of the stable
/// two-way merge of the sorted `a` and `b` (ties taken from `a`),
/// appended to `out` without materialising the merge: the dropped parity
/// is compared and stepped over, never copied.
///
/// Generic over the point type: it is the same-weight merge of every
/// point type without a kernel of its own, the scalar reference of the
/// `u64` kernels, and their tail.
pub fn merge_keep_parity_into<T: Ord + Clone>(a: &[T], b: &[T], offset: usize, out: &mut Vec<T>) {
    debug_assert!(offset < 2, "offset {offset} is not a parity");
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let from_a = a[i] <= b[j];
        if (i + j) & 1 == offset {
            out.push(if from_a { a[i].clone() } else { b[j].clone() });
        }
        i += usize::from(from_a);
        j += usize::from(!from_a);
    }
    // One input is exhausted; the other's tail is the rest of the merge.
    let tail = if i < a.len() { &a[i..] } else { &b[j..] };
    let skip = ((i + j) & 1) ^ offset;
    out.extend(tail.iter().skip(skip).step_by(2).cloned());
}

/// Scalar reference: positions `offset, offset + 2, …` of the sorted
/// multiset `a ∪ b` of two sorted `u64` slices.
pub fn merge_keep_parity_u64_scalar(a: &[u64], b: &[u64], offset: usize) -> Vec<u64> {
    assert!(offset < 2, "offset {offset} is not a parity");
    let mut out = Vec::with_capacity(kept_len(a.len() + b.len(), offset));
    merge_keep_parity_into(a, b, offset, &mut out);
    out
}

/// True when `isa` has a vector keep-parity merge. AVX2 has none: it
/// lacks 64-bit unsigned min/max and compress, so every compare-exchange
/// of the network costs a sign-biased compare and two blends, and the
/// same network four lanes wide measured only 1.39× the scalar loop
/// (DESIGN.md §3a″), below the 1.5× a kernel must clear to ship.
pub fn has_merge_kernel(isa: Isa) -> bool {
    cfg!(target_arch = "x86_64") && isa == Isa::Avx512
}

/// Keep-parity merge of two sorted `u64` slices using the given ISA.
///
/// Equal `u64`s are indistinguishable, so every correct merge returns the
/// same vector: the kernel's output is the scalar reference's, whatever
/// order its network takes ties in.
pub fn merge_keep_parity_u64_with(isa: Isa, a: &[u64], b: &[u64], offset: usize) -> Vec<u64> {
    assert!(offset < 2, "offset {offset} is not a parity");
    match isa {
        // SAFETY: `Isa::Avx512` is only ever detected (or listed by
        // `supported_isas`) on hosts with AVX-512 F, all the kernel needs.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { x86::merge_keep_parity_avx512(a, b, offset) },
        _ => merge_keep_parity_u64_scalar(a, b, offset),
    }
}

/// Keep-parity merge of two sorted `u64` slices on the host-detected ISA.
pub fn merge_keep_parity_u64(a: &[u64], b: &[u64], offset: usize) -> Vec<u64> {
    merge_keep_parity_u64_with(active_isa(), a, b, offset)
}

// ---------------------------------------------------------------------------
// x86_64 AVX2 and AVX-512 variants
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_slices_avx2(dst: &mut [u64], src: &[u64]) {
        assert_eq!(dst.len(), src.len(), "add_slices length mismatch");
        let n = dst.len();
        let lanes = n / 4 * 4;
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0;
        while i < lanes {
            let a = _mm256_loadu_si256(dp.add(i) as *const __m256i);
            let b = _mm256_loadu_si256(sp.add(i) as *const __m256i);
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, _mm256_add_epi64(a, b));
            i += 4;
        }
        for j in lanes..n {
            dst[j] = dst[j].wrapping_add(src[j]);
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_slices_multi_avx2(dst: &mut [u64], srcs: &[&[u64]]) {
        for s in srcs {
            assert_eq!(dst.len(), s.len(), "add_slices_multi length mismatch");
        }
        let n = dst.len();
        let lanes = n / 4 * 4;
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < lanes {
            let mut acc = _mm256_loadu_si256(dp.add(i) as *const __m256i);
            for s in srcs {
                let b = _mm256_loadu_si256(s.as_ptr().add(i) as *const __m256i);
                acc = _mm256_add_epi64(acc, b);
            }
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, acc);
            i += 4;
        }
        for j in lanes..n {
            let mut acc = dst[j];
            for s in srcs {
                acc = acc.wrapping_add(s[j]);
            }
            dst[j] = acc;
        }
    }

    /// Sorts a bitonic 8-lane vector ascending: half-cleaners at lane
    /// distances 4, 2 and 1, each a swap permute, a min, and a max
    /// written only into the upper lane of every pair.
    ///
    /// # Safety
    /// Caller must ensure AVX-512 F is available.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn bitonic_sort8(v: __m512i) -> __m512i {
        let p = _mm512_shuffle_i64x2::<0b01_00_11_10>(v, v);
        let v = _mm512_mask_max_epu64(_mm512_min_epu64(v, p), 0xF0, v, p);
        let p = _mm512_shuffle_i64x2::<0b10_11_00_01>(v, v);
        let v = _mm512_mask_max_epu64(_mm512_min_epu64(v, p), 0xCC, v, p);
        let p = _mm512_shuffle_epi32::<0b01_00_11_10>(v);
        _mm512_mask_max_epu64(_mm512_min_epu64(v, p), 0xAA, v, p)
    }

    /// Keep-parity merge: an 8 × 8 bitonic merge network carries the
    /// upper eight of every step and loads the next eight lanes from
    /// whichever input has the smaller head, so at most eight loaded
    /// values can exceed an unloaded one and the lower eight are final.
    /// Output blocks start at multiples of 8, so one fixed compress mask
    /// keeps the wanted parity of each; a scalar tail merges the carry
    /// with what is left of both inputs.
    ///
    /// # Safety
    /// Caller must ensure AVX-512 F is available and `offset < 2`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn merge_keep_parity_avx512(a: &[u64], b: &[u64], offset: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(super::kept_len(a.len() + b.len(), offset));
        if a.len() < 8 || b.len() < 8 {
            super::merge_keep_parity_into(a, b, offset, &mut out);
            return out;
        }
        let keep: __mmask8 = if offset == 0 { 0x55 } else { 0xAA };
        let reverse = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let (mut i, mut j) = (8, 8);
        // SAFETY: both inputs hold at least eight values (checked above).
        let mut hi = _mm512_loadu_si512(ap as *const __m512i);
        let mut next = _mm512_loadu_si512(bp as *const __m512i);
        let mut blocks = 0;
        loop {
            // Ascending `hi` against descending `next` is a bitonic 16:
            // one min/max splits it into the lower and upper eight.
            let rev = _mm512_permutexvar_epi64(reverse, next);
            let lo = bitonic_sort8(_mm512_min_epu64(hi, rev));
            hi = bitonic_sort8(_mm512_max_epu64(hi, rev));
            let kept = _mm512_maskz_compress_epi64(keep, lo);
            // SAFETY: block `blocks` is merged positions
            // `8·blocks .. 8·blocks + 8`, all below `a.len() + b.len()`,
            // so its four kept ones are output slots `4·blocks ..
            // 4·blocks + 4`, inside the capacity reserved above.
            _mm256_storeu_si256(
                out.as_mut_ptr().add(4 * blocks) as *mut __m256i,
                _mm512_castsi512_si256(kept),
            );
            blocks += 1;
            if i + 8 > a.len() || j + 8 > b.len() {
                break;
            }
            // SAFETY: `i + 8 <= a.len()` and `j + 8 <= b.len()` (checked
            // above), so both heads and the chosen eight lanes are in
            // bounds.
            let from_a = *ap.add(i) <= *bp.add(j);
            let src = if from_a { ap.add(i) } else { bp.add(j) };
            next = _mm512_loadu_si512(src as *const __m512i);
            i += 8 * usize::from(from_a);
            j += 8 * usize::from(!from_a);
        }
        // SAFETY: the loop initialised exactly the first `4·blocks` slots.
        out.set_len(4 * blocks);

        // Tail: the carry, then every value not yet loaded. One input has
        // fewer than eight left; merge it into the carry, then the other.
        let mut carry = [0u64; 8];
        // SAFETY: `carry` is eight `u64`s, one unaligned 512-bit store.
        _mm512_storeu_si512(carry.as_mut_ptr() as *mut __m512i, hi);
        let (short, long) = if a.len() - i < 8 {
            (&a[i..], &b[j..])
        } else {
            (&b[j..], &a[i..])
        };
        let mut head = [0u64; 15];
        let (mut x, mut y) = (0, 0);
        for slot in &mut head[..8 + short.len()] {
            let from_carry = y == short.len() || (x < 8 && carry[x] <= short[y]);
            *slot = if from_carry { carry[x] } else { short[y] };
            x += usize::from(from_carry);
            y += usize::from(!from_carry);
        }
        // Every block covered an even number of positions, so the tail's
        // first position has the parity of the whole merge's first.
        super::merge_keep_parity_into(&head[..8 + short.len()], long, offset, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    const SEEDS: [u64; 3] = [0xF417_5EED, 0xB0B5_CAFE, 0x2026_0806];

    fn vectors(seed: u64, len: usize) -> Vec<u64> {
        let mut rng = Rng64::new(seed);
        (0..len).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn detection_is_stable_and_labelled() {
        let isa = active_isa();
        assert_eq!(isa, active_isa());
        assert!(!isa.label().is_empty());
        if force_scalar() {
            assert_eq!(isa, Isa::Scalar);
        }
    }

    #[test]
    fn add_slices_vector_matches_scalar() {
        for &seed in &SEEDS {
            for len in [0, 1, 3, 4, 7, 64, 257] {
                let src = vectors(seed, len);
                let mut a = vectors(seed ^ 1, len);
                add_slices_scalar(&mut a, &src);
                for isa in supported_isas() {
                    let mut b = vectors(seed ^ 1, len);
                    add_slices_with(isa, &mut b, &src);
                    assert_eq!(a, b, "seed {seed:#x} len {len} isa {isa:?}");
                }
            }
        }
    }

    #[test]
    fn add_slices_multi_matches_sequential_folds() {
        for &seed in &SEEDS {
            let srcs: Vec<Vec<u64>> = (0..5).map(|k| vectors(seed ^ k, 131)).collect();
            let refs: Vec<&[u64]> = srcs.iter().map(|s| s.as_slice()).collect();
            let mut seq = vectors(seed ^ 99, 131);
            for s in &refs {
                add_slices_scalar(&mut seq, s);
            }
            for isa in supported_isas() {
                let mut fused = vectors(seed ^ 99, 131);
                add_slices_multi_with(isa, &mut fused, &refs);
                assert_eq!(fused, seq, "seed {seed:#x} isa {isa:?}");
            }
        }
    }

    /// Sort-then-step: the keep-parity merge by its definition, with no
    /// merge loop in it.
    fn keep_parity_reference(a: &[u64], b: &[u64], offset: usize) -> Vec<u64> {
        let mut all = [a, b].concat();
        all.sort_unstable();
        all.into_iter().skip(offset).step_by(2).collect()
    }

    /// `len` sorted values below `universe` (any `u64` when `None`).
    fn sorted_side(rng: &mut Rng64, len: usize, universe: Option<u64>) -> Vec<u64> {
        let mut v: Vec<u64> = (0..len)
            .map(|_| match universe {
                Some(u) => rng.below(u),
                None => rng.next_u64(),
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// Both offsets, the scalar reference and every tier this host runs,
    /// against sort-then-step.
    fn check_keep_parity(a: &[u64], b: &[u64], what: &str) {
        for offset in [0, 1] {
            let want = keep_parity_reference(a, b, offset);
            let got = merge_keep_parity_u64_scalar(a, b, offset);
            assert_eq!(got, want, "{what} offset {offset} scalar");
            for isa in supported_isas() {
                let got = merge_keep_parity_u64_with(isa, a, b, offset);
                assert_eq!(got, want, "{what} offset {offset} isa {isa:?}");
            }
        }
    }

    #[test]
    fn keep_parity_every_length_pair_around_the_vector_width() {
        let mut rng = Rng64::new(0x3E26_E001);
        for la in 0..=20 {
            for lb in 0..=20 {
                // A universe of 4 is long runs of ties; `None` has none.
                for universe in [Some(4), None] {
                    let a = sorted_side(&mut rng, la, universe);
                    let b = sorted_side(&mut rng, lb, universe);
                    check_keep_parity(&a, &b, &format!("{la}+{lb} universe {universe:?}"));
                }
            }
        }
    }

    #[test]
    fn keep_parity_buffer_sized_and_random_lengths() {
        let mut rng = Rng64::new(0x3E26_E002);
        for (la, lb) in [(921, 921), (921, 460), (460, 921), (1, 921), (921, 1)] {
            for universe in [Some(4), Some(1 << 20), None] {
                let a = sorted_side(&mut rng, la, universe);
                let b = sorted_side(&mut rng, lb, universe);
                check_keep_parity(&a, &b, &format!("{la}+{lb} universe {universe:?}"));
            }
        }
        for case in 0..200 {
            let (la, lb) = (rng.below_usize(300), rng.below_usize(300));
            let universe = [Some(2), Some(50), None][case % 3];
            let a = sorted_side(&mut rng, la, universe);
            let b = sorted_side(&mut rng, lb, universe);
            check_keep_parity(&a, &b, &format!("case {case}: {la}+{lb}"));
        }
    }

    #[test]
    fn keep_parity_extremes_ties_and_disjoint_ranges() {
        let mut rng = Rng64::new(0x3E26_E003);
        // Values at both ends of the range, where a signed compare would
        // order them wrongly.
        for (la, lb) in [(9, 9), (24, 17), (921, 921)] {
            let mut edged = |len: usize| {
                let mut v = sorted_side(&mut rng, len, None);
                v[..3].fill(0);
                let n = v.len();
                v[n - 3..].fill(u64::MAX);
                v
            };
            let (a, b) = (edged(la), edged(lb));
            check_keep_parity(&a, &b, &format!("0 and MAX, {la}+{lb}"));
        }
        for v in [0, 7, u64::MAX] {
            for (la, lb) in [(8, 8), (37, 29), (921, 921)] {
                check_keep_parity(&vec![v; la], &vec![v; lb], &format!("all {v}, {la}+{lb}"));
            }
        }
        for (la, lb) in [(16, 16), (100, 37), (921, 921)] {
            let low: Vec<u64> = (0..la as u64).collect();
            let high: Vec<u64> = (0..lb as u64).map(|v| u64::MAX - lb as u64 + v).collect();
            check_keep_parity(&low, &high, &format!("low then high, {la}+{lb}"));
            check_keep_parity(&high, &low, &format!("high then low, {lb}+{la}"));
        }
    }
}
