//! Hand-written AVX2 and AVX-512 kernels, bit-identical to their scalar
//! twins.
//!
//! Every function here is `unsafe` and `#[target_feature]`-gated: the
//! only sound way in is through [`crate::dispatch`], whose
//! `detect_cpu` check proves `avx2`, `fma` and `f16c` are present
//! before a resolved backend with
//! [`has_avx2`](crate::dispatch::Backend::has_avx2) can be observed by a
//! kernel call site, and `avx512f` and `avx512dq` as well before
//! [`crate::dispatch::Backend::Avx512`] can (lint rule S1 enforces the
//! comment discipline). The AVX2 kernels serve both resolved SIMD
//! backends; the one AVX-512 kernel, [`dot_rows4_avx512`], scores four
//! x-rows per 8-row block and has no AVX2 twin.
//!
//! **Bit-exactness.** The kernels deliberately use *unfused*
//! `mul` + `add` rather than FMA: rustc does not contract float
//! expressions, so the scalar kernels round after every multiply — a
//! fused kernel would produce different last bits. Each vector lane
//! replays the exact per-element operation sequence of the
//! corresponding scalar kernel, and horizontal reductions use the same
//! fixed pairwise order, so `scalar == avx2 == avx512` holds bit for
//! bit.
//! The integer int8 kernel is exact arithmetic in `i32`, which is
//! order-independent, so it is trivially identical to its scalar twin.

use core::arch::x86_64::*;

/// Dot product with [`crate::linalg::dot`]'s exact float order: one
/// 8-lane accumulator updated mul-then-add per chunk, lanes reduced
/// pairwise, scalar tail added last.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..).has_avx2()`, which is only true when
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
// `dispatch::resolve(..).has_avx2()` (avx2+fma+f16c verified),
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

/// Dots four x-rows against 8 rows of `rows` per step: for `q < 4` and
/// each row `r` below `n - n % 8` (row `r` starts at `r * stride`, as in
/// [`dot_rows_avx2`]), writes `out[q * n + r] = dot_avx2(xs[q], row r)`
/// bit for bit. Rows past the last multiple of 8 are left to the caller.
///
/// Requests 0 and 1 ride the two 256-bit halves of one zmm accumulator
/// per row, requests 2 and 3 those of another, so each 8-lane chunk of a
/// row is one broadcast load shared by all four. Every (request, row)
/// half keeps its own accumulator in [`dot_rows_avx2`]'s exact order:
/// from zero, `acc + x*row` per chunk, unfused; the same even/odd
/// shuffle reduction (`_mm512_shuffle_ps` works per 128-bit lane, as the
/// 256-bit one does), run on both halves at once, leaves
/// `(l0+l1)+(l2+l3)` and `(l4+l5)+(l6+l7)` per (request, row); a
/// two-source permute gathers each half's 8 rows, and one add joins the
/// two sums before the scalar tail is added last.
///
/// # Safety
/// The CPU must support every enabled feature (the check below). Every
/// load reads a slice cut (and so bounds-checked) before the loop: each
/// x-row is cut to the first one's length, each 8-row block of `rows`
/// to its extent, and each output block of `out` to its 8 floats.
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..) == Backend::Avx512` (avx512f+avx512dq and the
// avx2+fma+f16c set verified at runtime).
#[target_feature(enable = "avx512f,avx512dq,avx2,fma,f16c")]
pub(crate) unsafe fn dot_rows4_avx512(
    xs: [&[f32]; 4],
    rows: &[f32],
    stride: usize,
    n: usize,
    out: &mut [f32],
) {
    const LANES: usize = 8;
    const ROWS: usize = 8;
    let k = xs[0].len();
    debug_assert!(xs.iter().all(|x| x.len() == k));
    debug_assert_eq!(out.len(), 4 * n);
    let main = k - k % LANES;
    let [xa, xb, xc, xd] = xs;
    let (xa, xb, xc, xd) = (&xa[..k], &xb[..k], &xc[..k], &xd[..k]);
    let (pa, pb, pc, pd) = (xa.as_ptr(), xb.as_ptr(), xc.as_ptr(), xd.as_ptr());
    // Indices for `_mm512_permutex2var_ps`: `low` gathers the
    // `(l0+l1)+(l2+l3)` sums and `high` the `(l4+l5)+(l6+l7)` sums of
    // rows 0..4 (first source) and rows 4..8 (second source), request by
    // request.
    let low = _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19, 8, 9, 10, 11, 24, 25, 26, 27);
    let high = _mm512_setr_epi32(4, 5, 6, 7, 20, 21, 22, 23, 12, 13, 14, 15, 28, 29, 30, 31);
    let pairs = |a: __m512, b: __m512| {
        _mm512_add_ps(
            _mm512_shuffle_ps::<0x88>(a, b),
            _mm512_shuffle_ps::<0xDD>(a, b),
        )
    };
    // Rows 0..8 of one accumulator array, reduced: the first request of
    // its pair gets its 8 dots in the low 256 bits, the second in the
    // high 256, each with its tails added last.
    let reduce = |acc: &[__m512; ROWS], tails: &[f32; 2 * ROWS]| {
        let (p01, p23) = (pairs(acc[0], acc[1]), pairs(acc[2], acc[3]));
        let (p45, p67) = (pairs(acc[4], acc[5]), pairs(acc[6], acc[7]));
        let (q03, q47) = (pairs(p01, p23), pairs(p45, p67));
        let sum = _mm512_add_ps(
            _mm512_permutex2var_ps(q03, low, q47),
            _mm512_permutex2var_ps(q03, high, q47),
        );
        // SAFETY: `tails` is exactly 16 f32s, one zmm.
        _mm512_add_ps(sum, unsafe { _mm512_loadu_ps(tails.as_ptr()) })
    };
    for g in 0..n / ROWS {
        let start = g * ROWS * stride;
        let block = &rows[start..start + (ROWS - 1) * stride + k];
        let pr = block.as_ptr();
        let mut ab = [_mm512_setzero_ps(); ROWS];
        let mut cd = [_mm512_setzero_ps(); ROWS];
        let mut i = 0;
        while i < main {
            // i + LANES <= main <= k, the length of every x-row, and for
            // r < ROWS, r * stride + i + LANES <= (ROWS - 1) * stride + k.
            // SAFETY: so every 8-lane load reads in bounds (of an x-row,
            // or of `block`, whose length is that bound).
            unsafe {
                let xab = _mm512_insertf32x8::<1>(
                    _mm512_castps256_ps512(_mm256_loadu_ps(pa.add(i))),
                    _mm256_loadu_ps(pb.add(i)),
                );
                let xcd = _mm512_insertf32x8::<1>(
                    _mm512_castps256_ps512(_mm256_loadu_ps(pc.add(i))),
                    _mm256_loadu_ps(pd.add(i)),
                );
                for r in 0..ROWS {
                    let rv = _mm512_broadcast_f32x8(_mm256_loadu_ps(pr.add(r * stride + i)));
                    ab[r] = _mm512_add_ps(ab[r], _mm512_mul_ps(xab, rv));
                    cd[r] = _mm512_add_ps(cd[r], _mm512_mul_ps(xcd, rv));
                }
            }
            i += LANES;
        }
        // Tails in the reduced layout of accumulator array `h` (`ab`,
        // then `cd`): request `2h`'s 8 rows, then request `2h + 1`'s.
        let mut tails = [[0.0f32; 2 * ROWS]; 2];
        for (q, x) in xs.iter().enumerate() {
            for r in 0..ROWS {
                let row = &block[r * stride..r * stride + k];
                let t = &mut tails[q / 2][(q % 2) * ROWS + r];
                for (a, b) in x[main..].iter().zip(&row[main..]) {
                    *t += a * b;
                }
            }
        }
        for (h, acc) in [&ab, &cd].into_iter().enumerate() {
            let sum = reduce(acc, &tails[h]);
            let halves = [
                _mm512_castps512_ps256(sum),
                _mm512_extractf32x8_ps::<1>(sum),
            ];
            for (q, half) in (2 * h..).zip(halves) {
                let at = q * n + g * ROWS;
                let dst = &mut out[at..at + ROWS];
                // SAFETY: `dst` is exactly 8 f32s, one ymm.
                unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), half) };
            }
        }
    }
}

/// Dot product of an `f32` row against an `f16` (bit-level `u16`) row,
/// widening via `_mm256_cvtph_ps` — exact, like the scalar software
/// widening — then following [`dot_avx2`]'s float order.
///
// SAFETY: callers must hold the guarding dispatch check
// `dispatch::resolve(..).has_avx2()` (avx2+fma+f16c verified);
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
// `dispatch::resolve(..).has_avx2()` (avx2 verified at runtime).
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
