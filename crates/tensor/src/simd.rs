//! Hand-written AVX2 kernels, bit-identical to their scalar twins.
//!
//! Every function here is `unsafe` and `#[target_feature]`-gated: the
//! only sound way in is through [`crate::dispatch`], whose
//! `detect_cpu` check proves `avx2`, `fma` and `f16c` are present
//! before [`crate::dispatch::Backend::Avx2`] can be observed by a
//! kernel call site (lint rule S1 enforces the comment discipline).
//!
//! **Bit-exactness.** The kernels deliberately use *unfused*
//! `_mm256_mul_ps` + `_mm256_add_ps` rather than FMA: rustc does not
//! contract float expressions, so the scalar kernels round after every
//! multiply — a fused kernel would produce different last bits.
//! Each vector lane replays the exact per-element operation sequence of
//! the corresponding scalar kernel, and horizontal reductions use the
//! same fixed pairwise order, so `scalar == avx2` holds bit for bit.
//! The integer int8 kernel is exact arithmetic in `i32`, which is
//! order-independent, so it is trivially identical to its scalar twin.

use core::arch::x86_64::*;

/// Dot product with [`crate::linalg::dot`]'s exact float order: one
/// 8-lane accumulator updated mul-then-add per chunk, lanes reduced
/// pairwise, scalar tail added last.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2`, which is only true when
// `detect_cpu` observed avx2+fma+f16c at runtime.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    const LANES: usize = 8;
    let main = a.len() - a.len() % LANES;
    let mut acc = _mm256_setzero_ps();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: i + LANES <= main <= a.len() == b.len(), so both
        // 8-lane unaligned loads read in bounds.
        let (va, vb) = unsafe { (_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i))) };
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        i += LANES;
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: `lanes` is exactly 8 f32s, the width of one ymm store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    let mut tail = 0.0f32;
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        tail += x * y;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// Dots `x` against 8 rows of `rows` per step (row `r` starts at
/// `r * stride` and is `x.len()` floats long; `out.len()` rows, a
/// multiple of 8), writing `out[r] = dot_avx2(x, row r)` bit for bit.
///
/// Per row it replays [`dot_avx2`]: each 8-lane chunk updates the
/// row's accumulator as `acc + x*row`, unfused. The 8 accumulators are
/// then reduced together by a transpose: even-lane + odd-lane shuffles
/// of row pairs, applied twice, leave `(l0+l1)+(l2+l3)` in the low and
/// `(l4+l5)+(l6+l7)` in the high 128-bit half of each row's slot, and
/// one cross-half add yields `dot`'s pairwise sum. Shuffles keep the
/// even lane as the left operand, as `dot` does (`hadd` would add
/// `l1+l0`). Each row's scalar tail is added last, even when the
/// remainder is empty: `dot` adds `0.0` too, turning `-0.0` into `+0.0`.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2` (avx2+fma+f16c verified),
// and pass `out.len() % 8 == 0`; each 8-row block is sliced (and so
// bounds-checked) before any load reads it.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn dot_rows_avx2(x: &[f32], rows: &[f32], stride: usize, out: &mut [f32]) {
    const LANES: usize = 8;
    const ROWS: usize = 8;
    let k = x.len();
    debug_assert_eq!(out.len() % ROWS, 0);
    let main = k - k % LANES;
    let px = x.as_ptr();
    for (g, out8) in out.chunks_exact_mut(ROWS).enumerate() {
        let start = g * ROWS * stride;
        let block = &rows[start..start + (ROWS - 1) * stride + k];
        let pb = block.as_ptr();
        let mut acc = [_mm256_setzero_ps(); ROWS];
        let mut i = 0;
        while i < main {
            // SAFETY: i + LANES <= main <= k == x.len(), and for r < ROWS
            // r * stride + i + LANES <= (ROWS - 1) * stride + k ==
            // block.len(), so every 8-lane unaligned load reads in bounds.
            unsafe {
                let xv = _mm256_loadu_ps(px.add(i));
                for (r, a) in acc.iter_mut().enumerate() {
                    let rv = _mm256_loadu_ps(pb.add(r * stride + i));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, rv));
                }
            }
            i += LANES;
        }
        let mut tail = [0.0f32; ROWS];
        for (r, t) in tail.iter_mut().enumerate() {
            let row = &block[r * stride..r * stride + k];
            for (a, b) in x[main..].iter().zip(&row[main..]) {
                *t += a * b;
            }
        }
        let pairs = |a: __m256, b: __m256| {
            _mm256_add_ps(
                _mm256_shuffle_ps::<0x88>(a, b),
                _mm256_shuffle_ps::<0xDD>(a, b),
            )
        };
        // [r0 (l0+l1), r0 (l2+l3), r1 (l0+l1), r1 (l2+l3) | same for l4..l7]
        let (p01, p23) = (pairs(acc[0], acc[1]), pairs(acc[2], acc[3]));
        let (p45, p67) = (pairs(acc[4], acc[5]), pairs(acc[6], acc[7]));
        // [r0..r3 (l0+l1)+(l2+l3) | r0..r3 (l4+l5)+(l6+l7)]
        let (q03, q47) = (pairs(p01, p23), pairs(p45, p67));
        let low = _mm256_permute2f128_ps::<0x20>(q03, q47);
        let high = _mm256_permute2f128_ps::<0x31>(q03, q47);
        // SAFETY: `tail` and `out8` are exactly 8 f32s, one ymm each.
        unsafe {
            let sum = _mm256_add_ps(_mm256_add_ps(low, high), _mm256_loadu_ps(tail.as_ptr()));
            _mm256_storeu_ps(out8.as_mut_ptr(), sum);
        }
    }
}

/// Dot product of an `f32` row against an `f16` (bit-level `u16`) row,
/// widening via `_mm256_cvtph_ps` — exact, like the scalar software
/// widening — then following [`dot_avx2`]'s float order.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2` (avx2+fma+f16c verified);
// f16c covers `_mm256_cvtph_ps`.
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn dot_f16_avx2(a: &[f32], hb: &[u16]) -> f32 {
    debug_assert_eq!(a.len(), hb.len());
    const LANES: usize = 8;
    let main = a.len() - a.len() % LANES;
    let mut acc = _mm256_setzero_ps();
    let (pa, ph) = (a.as_ptr(), hb.as_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: i + LANES <= main <= a.len() == hb.len(); the f32
        // load reads 8 lanes of `a`, the 128-bit load 8 u16s of `hb`.
        let (va, vh) = unsafe {
            (
                _mm256_loadu_ps(pa.add(i)),
                _mm_loadu_si128(ph.add(i) as *const __m128i),
            )
        };
        let vb = _mm256_cvtph_ps(vh);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        i += LANES;
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: `lanes` is exactly 8 f32s, the width of one ymm store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    let mut tail = 0.0f32;
    for (x, h) in a[main..].iter().zip(&hb[main..]) {
        tail += x * crate::quant::f16_to_f32(*h);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// Integer dot of a pre-centered `i16` user row against a raw `i8` item
/// row with zero point `zv`: `Σ uc[j] * (v[j] - zv)`, exact in `i32`
/// (both operands are bounded by 255 in magnitude, so every
/// `_mm256_madd_epi16` pair fits). Integer addition is associative —
/// the wide and scalar orders agree exactly.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx2` (avx2 verified at runtime).
#[target_feature(enable = "avx2,fma,f16c")]
pub(crate) unsafe fn dot_i8_avx2(uc: &[i16], v: &[i8], zv: i16) -> i32 {
    debug_assert_eq!(uc.len(), v.len());
    const STEP: usize = 16;
    let main = uc.len() - uc.len() % STEP;
    let vz = _mm256_set1_epi16(zv);
    let mut acc = _mm256_setzero_si256();
    let (pu, pv) = (uc.as_ptr(), v.as_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: i + STEP <= main <= uc.len() == v.len(); the 128-bit
        // load reads 16 i8s of `v`, the 256-bit load 16 i16s of `uc`.
        let (raw, u) = unsafe {
            (
                _mm_loadu_si128(pv.add(i) as *const __m128i),
                _mm256_loadu_si256(pu.add(i) as *const __m256i),
            )
        };
        let wide = _mm256_cvtepi8_epi16(raw);
        let centered = _mm256_sub_epi16(wide, vz);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(u, centered));
        i += STEP;
    }
    let mut lanes = [0i32; 8];
    // SAFETY: `lanes` is exactly 8 i32s, the width of one ymm store.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc) };
    let mut total: i32 = lanes.iter().sum();
    let zv = zv as i32;
    for (&u, &q) in uc[main..].iter().zip(&v[main..]) {
        total += u as i32 * (q as i32 - zv);
    }
    total
}
