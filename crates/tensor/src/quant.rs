//! Quantized storage for frozen embedding matrices: bit-level `f16`
//! ([`HalfMatrix`]) and per-row affine `int8` ([`Int8Matrix`]), plus the
//! mixed-precision dot kernels the serving engine scores with.
//!
//! Both formats exist to shrink the *frozen* serving matrices — training
//! stays pure `f32`. Quantization is a pure function of the source
//! matrix (no RNG, no clocks), so frozen artifacts are reproducible
//! byte for byte.
//!
//! * **f16** stores raw IEEE 754 binary16 bits in `u16`s. Widening back
//!   to `f32` is always exact, so an f16 engine is bit-deterministic:
//!   the only error is the one-time narrowing at freeze time.
//! * **int8** stores per-row affine codes `q = round(x/scale) + zp`
//!   with the row range widened to include zero, which bounds the
//!   zero point to `[-128, 127]` and the dequantization error to
//!   `1.5 * scale` per element (`scale/2` away from the row extremes).
//!   Scoring happens in exact integer arithmetic (see
//!   [`dot_i8_centered`]), so int8 scores are identical across
//!   backends, threads and bands.

use crate::dispatch::{self, Backend};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// f16 <-> f32 bit conversions (software; no std support needed)
// ---------------------------------------------------------------------------

/// Narrows an `f32` to IEEE 754 binary16 bits with round-to-nearest-even
/// (the same rounding the hardware `vcvtps2ph` instruction uses).
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp32 = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp32 == 255 {
        // Inf / NaN; quiet any NaN payload.
        return sign | 0x7c00 | if man != 0 { 0x0200 } else { 0 };
    }
    let exp = exp32 - 127 + 15;
    if exp >= 31 {
        return sign | 0x7c00; // overflow -> inf
    }
    if exp <= 0 {
        // Subnormal (or zero): value is an RNE-rounded multiple of 2^-24.
        if exp < -10 {
            return sign; // underflows to signed zero
        }
        let m = man | 0x0080_0000; // implicit bit
        let shift = (14 - exp) as u32; // 14..=24
        let kept = m >> shift;
        let round_bit = (m >> (shift - 1)) & 1;
        let sticky = (m & ((1 << (shift - 1)) - 1)) != 0;
        let out = kept + u32::from(round_bit == 1 && (sticky || kept & 1 == 1));
        // `out == 0x400` is exactly the smallest normal; encoding works out.
        return sign | out as u16;
    }
    let kept = ((exp as u32) << 10) | (man >> 13);
    let round_bit = (man >> 12) & 1;
    let sticky = (man & 0x0fff) != 0;
    // A mantissa carry walks into the exponent (up to inf) — correct RNE.
    let out = kept + u32::from(round_bit == 1 && (sticky || kept & 1 == 1));
    sign | out as u16
}

/// Widens IEEE 754 binary16 bits to `f32`. Exact for every finite input
/// (binary16 ⊂ binary32), matching the hardware `vcvtph2ps` widening.
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    if exp == 0 {
        // Signed zero / subnormal: value = ±man * 2^-24, both steps exact.
        let mag = man as f32 * f32::from_bits(0x3380_0000); // 2^-24
        return if sign != 0 { -mag } else { mag };
    }
    if exp == 31 {
        let inf_nan = if man == 0 {
            0x7f80_0000
        } else {
            0x7fc0_0000 | (man << 13)
        };
        return f32::from_bits(sign | inf_nan);
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

// ---------------------------------------------------------------------------
// Matrices
// ---------------------------------------------------------------------------

/// A row-major matrix of IEEE 754 binary16 bit patterns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HalfMatrix {
    rows: usize,
    cols: usize,
    bits: Vec<u16>,
}

impl HalfMatrix {
    /// Narrows every element of `m` with round-to-nearest-even.
    pub fn from_matrix(m: &Matrix) -> HalfMatrix {
        HalfMatrix {
            rows: m.rows(),
            cols: m.cols(),
            bits: m.as_slice().iter().map(|&x| f32_to_f16(x)).collect(),
        }
    }

    /// Rebuilds from raw parts (checkpoint decode path). `rows * cols`
    /// is checked for overflow, so no shape can pass for a short payload.
    pub fn from_parts(rows: usize, cols: usize, bits: Vec<u16>) -> Result<HalfMatrix, String> {
        if rows.checked_mul(cols) != Some(bits.len()) {
            return Err(format!(
                "f16 matrix payload: {} bits for {rows}x{cols}",
                bits.len()
            ));
        }
        Ok(HalfMatrix { rows, cols, bits })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The raw binary16 bits of row `r`.
    pub fn row(&self, r: usize) -> &[u16] {
        &self.bits[r * self.cols..(r + 1) * self.cols]
    }

    pub fn as_bits(&self) -> &[u16] {
        &self.bits
    }

    /// Exact widening of row `r` into `out` (`out.len() == cols`).
    pub fn widen_row_into(&self, r: usize, out: &mut [f32]) {
        for (d, &h) in out.iter_mut().zip(self.row(r)) {
            *d = f16_to_f32(h);
        }
    }

    /// Exact widening of the whole matrix back to `f32`.
    pub fn to_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (d, &h) in m.as_mut_slice().iter_mut().zip(&self.bits) {
            *d = f16_to_f32(h);
        }
        m
    }
}

/// A row-major matrix of per-row affine int8 codes:
/// `x ≈ (q - zero_point) * scale`, one `(scale, zero_point)` per row.
///
/// The quantization range of every row is widened to include zero, so
/// `zero_point ∈ [-128, 127]` always holds and centered codes
/// (`q - zero_point`) fit `i16` — the invariant the exact integer dot
/// kernels rely on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Int8Matrix {
    rows: usize,
    cols: usize,
    q: Vec<i8>,
    scales: Vec<f32>,
    zero_points: Vec<i32>,
}

impl Int8Matrix {
    /// Quantizes `m` row by row.
    pub fn from_matrix(m: &Matrix) -> Int8Matrix {
        let (rows, cols) = m.shape();
        let mut q = vec![0i8; rows * cols];
        let mut scales = vec![1.0f32; rows];
        let mut zero_points = vec![0i32; rows];
        for r in 0..rows {
            let (s, z) = quantize_row(m.row(r), &mut q[r * cols..(r + 1) * cols]);
            scales[r] = s;
            zero_points[r] = z;
        }
        Int8Matrix {
            rows,
            cols,
            q,
            scales,
            zero_points,
        }
    }

    /// Rebuilds from raw parts (checkpoint decode path). `rows * cols`
    /// is checked for overflow, so no shape can pass for a short payload.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        q: Vec<i8>,
        scales: Vec<f32>,
        zero_points: Vec<i32>,
    ) -> Result<Int8Matrix, String> {
        if rows.checked_mul(cols) != Some(q.len())
            || scales.len() != rows
            || zero_points.len() != rows
        {
            return Err(format!(
                "int8 matrix payload: {} codes / {} scales / {} zero points for {rows}x{cols}",
                q.len(),
                scales.len(),
                zero_points.len()
            ));
        }
        if zero_points.iter().any(|z| !(-128..=127).contains(z)) {
            return Err("int8 matrix payload: zero point out of [-128, 127]".to_string());
        }
        Ok(Int8Matrix {
            rows,
            cols,
            q,
            scales,
            zero_points,
        })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn row(&self, r: usize) -> &[i8] {
        &self.q[r * self.cols..(r + 1) * self.cols]
    }

    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    pub fn zero_point(&self, r: usize) -> i32 {
        self.zero_points[r]
    }

    pub fn codes(&self) -> &[i8] {
        &self.q
    }

    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    pub fn zero_points(&self) -> &[i32] {
        &self.zero_points
    }

    /// Centers row `r` into `i16` codes (`q - zero_point`), the left
    /// operand of [`dot_i8_centered`].
    pub fn centered_row(&self, r: usize) -> Vec<i16> {
        let z = self.zero_points[r] as i16;
        self.row(r).iter().map(|&q| q as i16 - z).collect()
    }

    /// Dequantizes row `r` into `out` (`out.len() == cols`).
    pub fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        let s = self.scales[r];
        let z = self.zero_points[r];
        for (d, &q) in out.iter_mut().zip(self.row(r)) {
            *d = (q as i32 - z) as f32 * s;
        }
    }

    /// Dequantizes the whole matrix back to `f32`.
    pub fn to_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            self.dequantize_row_into(r, m.row_mut(r));
        }
        m
    }
}

/// Quantizes one row into `q`, returning `(scale, zero_point)`.
///
/// The range is `[min(row, 0), max(row, 0)]` — widened to include zero —
/// so `scale = range / 255` and `zero_point = -128 - round(min/scale)`
/// is provably in `[-128, 127]`. All-zero rows use the identity code
/// `(scale = 1, zero_point = 0, q = 0)`.
pub fn quantize_row(src: &[f32], q: &mut [i8]) -> (f32, i32) {
    debug_assert_eq!(src.len(), q.len());
    let mut lo = 0.0f32;
    let mut hi = 0.0f32;
    for &x in src {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if lo == hi {
        // Range widening makes lo <= 0 <= hi, so this is the all-zero row.
        q.fill(0);
        return (1.0, 0);
    }
    let scale = (hi - lo) / 255.0;
    let zp = (-128.0 - (lo / scale).round()) as i32;
    let zp = zp.clamp(-128, 127);
    for (d, &x) in q.iter_mut().zip(src) {
        let code = (x / scale).round() as i32 + zp;
        *d = code.clamp(-128, 127) as i8;
    }
    (scale, zp)
}

// ---------------------------------------------------------------------------
// Mixed-precision dot kernels (dispatched)
// ---------------------------------------------------------------------------

/// `Σ a[j] * widen(hb[j])` with [`crate::linalg::dot`]'s float order,
/// routed through the process-wide [`dispatch::backend`].
#[inline]
pub fn dot_f16(a: &[f32], hb: &[u16]) -> f32 {
    dot_f16_with_backend(a, hb, dispatch::backend())
}

/// [`dot_f16`] with an explicit backend request (degrades to scalar when
/// the CPU lacks AVX2). Bit-identical across backends.
pub fn dot_f16_with_backend(a: &[f32], hb: &[u16], backend: Backend) -> f32 {
    assert_eq!(a.len(), hb.len(), "dot_f16 length mismatch");
    #[cfg(target_arch = "x86_64")]
    if dispatch::resolve(backend).has_avx2() {
        // SAFETY: a resolved backend has AVX2 kernels only when the
        // guarding dispatch check (`detect_cpu`) saw avx2+fma+f16c.
        return unsafe { crate::simd::dot_f16_avx2(a, hb) };
    }
    let _ = backend;
    dot_f16_scalar(a, hb)
}

/// Scalar reference: widen each element, accumulate with the same
/// 8-lane pairwise order as [`crate::linalg::dot`].
pub(crate) fn dot_f16_scalar(a: &[f32], hb: &[u16]) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let main = a.len() - a.len() % LANES;
    for (ca, ch) in a[..main]
        .chunks_exact(LANES)
        .zip(hb[..main].chunks_exact(LANES))
    {
        for ((av, hv), lane) in ca.iter().zip(ch).zip(acc.iter_mut()) {
            *lane += av * f16_to_f32(*hv);
        }
    }
    let mut tail = 0.0f32;
    for (x, h) in a[main..].iter().zip(&hb[main..]) {
        tail += x * f16_to_f32(*h);
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Exact integer dot `Σ uc[j] * (v[j] - zv)` of a pre-centered `i16`
/// user row against a raw `i8` item row, routed through the process-wide
/// [`dispatch::backend`]. Integer addition is associative, so the result
/// is independent of backend, threads and bands by construction.
#[inline]
pub fn dot_i8_centered(uc: &[i16], v: &[i8], zv: i16) -> i32 {
    dot_i8_centered_with_backend(uc, v, zv, dispatch::backend())
}

/// [`dot_i8_centered`] with an explicit backend request.
pub fn dot_i8_centered_with_backend(uc: &[i16], v: &[i8], zv: i16, backend: Backend) -> i32 {
    assert_eq!(uc.len(), v.len(), "dot_i8 length mismatch");
    #[cfg(target_arch = "x86_64")]
    if dispatch::resolve(backend).has_avx2() {
        // SAFETY: a resolved backend has AVX2 kernels only when the
        // guarding dispatch check (`detect_cpu`) saw avx2+fma+f16c.
        return unsafe { crate::simd::dot_i8_avx2(uc, v, zv) };
    }
    let _ = backend;
    dot_i8_centered_scalar(uc, v, zv)
}

/// Scalar reference for the exact integer dot.
pub(crate) fn dot_i8_centered_scalar(uc: &[i16], v: &[i8], zv: i16) -> i32 {
    let zv = zv as i32;
    uc.iter()
        .zip(v)
        .map(|(&u, &q)| u as i32 * (q as i32 - zv))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64, span: f32) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = rng.gen_range(-span..span);
        }
        m
    }

    #[test]
    fn f16_round_trip_is_exact_for_representable_values() {
        // Multiples of 2^-8 within ±8 are exactly representable in f16.
        for i in -2048i32..=2048 {
            let x = i as f32 / 256.0;
            let h = f32_to_f16(x);
            assert_eq!(f16_to_f32(h).to_bits(), x.to_bits(), "x={x}");
        }
    }

    #[test]
    fn f16_narrowing_error_is_half_ulp() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..4096 {
            let x: f32 = rng.gen_range(-100.0f32..100.0);
            let back = f16_to_f32(f32_to_f16(x));
            // Relative half-ulp bound for binary16 normals: 2^-11.
            assert!(
                (x - back).abs() <= x.abs() * (1.0 / 2048.0) + 1e-7,
                "{x} -> {back}"
            );
        }
    }

    #[test]
    fn f16_specials() {
        assert_eq!(f32_to_f16(0.0), 0x0000);
        assert_eq!(f32_to_f16(-0.0), 0x8000);
        assert_eq!(f32_to_f16(1.0), 0x3c00);
        assert_eq!(f32_to_f16(-2.0), 0xc000);
        assert_eq!(f32_to_f16(65504.0), 0x7bff); // f16::MAX
        assert_eq!(f32_to_f16(1e6), 0x7c00); // overflow -> inf
        assert_eq!(f32_to_f16(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16(1e-8), 0x0000); // underflow -> zero
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        // Smallest subnormal survives the round trip.
        assert_eq!(f16_to_f32(0x0001), f32::from_bits(0x3380_0000));
    }

    #[test]
    fn f16_rne_ties_go_to_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16;
        // RNE keeps the even mantissa (1.0).
        let tie = 1.0f32 + f32::from_bits(0x3a00_0000); // 2^-11
        assert_eq!(f32_to_f16(tie), 0x3c00);
        // 1 + 3*2^-11 is halfway between odd and even; rounds up to even.
        let tie3 = 1.0f32 + 3.0 * f32::from_bits(0x3a00_0000);
        assert_eq!(f32_to_f16(tie3), 0x3c02);
    }

    #[test]
    fn int8_round_trip_error_is_bounded_per_row() {
        for (seed, span) in [(1u64, 0.05f32), (2, 1.0), (3, 40.0)] {
            let m = random_matrix(17, 33, seed, span);
            let q = Int8Matrix::from_matrix(&m);
            let back = q.to_matrix();
            for r in 0..m.rows() {
                let scale = q.scale(r);
                assert!((-128..=127).contains(&q.zero_point(r)), "row {r}");
                for (x, y) in m.row(r).iter().zip(back.row(r)) {
                    // round(x/scale) is within half a step; the clamped
                    // extreme code can add one more step.
                    assert!(
                        (x - y).abs() <= 1.5 * scale + 1e-6,
                        "row {r}: {x} vs {y} (scale {scale})"
                    );
                }
            }
        }
    }

    #[test]
    fn int8_zero_and_extremes_are_faithful() {
        let m = Matrix::from_vec(1, 4, vec![-3.0, 0.0, 1.0, 5.0]).unwrap();
        let q = Int8Matrix::from_matrix(&m);
        let back = q.to_matrix();
        let scale = q.scale(0);
        // Zero must map to an exact code (the zero point).
        assert_eq!(back.get(0, 1), 0.0);
        // The row minimum maps to code -128 exactly.
        assert_eq!(q.row(0)[0], -128);
        assert!((back.get(0, 0) - -3.0).abs() <= 1.5 * scale);
        assert!((back.get(0, 3) - 5.0).abs() <= 1.5 * scale);
    }

    #[test]
    fn int8_constant_rows() {
        let zeros = Matrix::zeros(2, 5);
        let q = Int8Matrix::from_matrix(&zeros);
        assert_eq!(q.to_matrix().as_slice(), zeros.as_slice());
        assert_eq!((q.scale(0), q.zero_point(0)), (1.0, 0));
        // Constant non-zero rows still include zero in the range.
        let c = Matrix::from_vec(1, 3, vec![2.0, 2.0, 2.0]).unwrap();
        let qc = Int8Matrix::from_matrix(&c);
        let back = qc.to_matrix();
        for v in back.as_slice() {
            assert!((v - 2.0).abs() <= 1.5 * qc.scale(0));
        }
    }

    #[test]
    fn centered_codes_fit_the_i16_contract() {
        let m = random_matrix(9, 65, 11, 3.0);
        let q = Int8Matrix::from_matrix(&m);
        for r in 0..q.rows() {
            for c in q.centered_row(r) {
                assert!((-255..=255).contains(&c));
            }
        }
    }

    #[test]
    fn mixed_dots_agree_across_backends() {
        let mut rng = StdRng::seed_from_u64(17);
        for len in [0usize, 1, 7, 8, 9, 16, 31, 32, 33, 128, 129] {
            let a: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let hb: Vec<u16> = b.iter().map(|&x| f32_to_f16(x)).collect();
            let scalar = dot_f16_with_backend(&a, &hb, Backend::Scalar);
            let auto = dot_f16_with_backend(&a, &hb, dispatch::backend());
            assert_eq!(scalar.to_bits(), auto.to_bits(), "f16 len={len}");

            let uc: Vec<i16> = (0..len).map(|_| rng.gen_range(-255i16..=255)).collect();
            let v: Vec<i8> = (0..len)
                .map(|_| rng.gen_range(-128i16..=127) as i8)
                .collect();
            let zv: i16 = rng.gen_range(-128..=127);
            let s = dot_i8_centered_with_backend(&uc, &v, zv, Backend::Scalar);
            let w = dot_i8_centered_with_backend(&uc, &v, zv, dispatch::backend());
            assert_eq!(s, w, "i8 len={len}");
        }
    }

    /// A shape whose `rows * cols` overflows `usize` is an error, not a
    /// debug-build panic or a release-build wrap that an empty payload
    /// would match.
    #[test]
    fn from_parts_rejects_overflowing_shapes() {
        let huge = 1usize << (usize::BITS / 2);
        assert!(HalfMatrix::from_parts(huge, huge, vec![]).is_err());
        assert!(Int8Matrix::from_parts(huge, huge, vec![], vec![], vec![]).is_err());
        assert!(HalfMatrix::from_parts(2, 3, vec![0; 5]).is_err());
        assert!(HalfMatrix::from_parts(2, 3, vec![0; 6]).is_ok());
        assert!(Int8Matrix::from_parts(2, 3, vec![0; 6], vec![1.0; 2], vec![0; 2]).is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let m = random_matrix(3, 5, 21, 2.0);
        let h = HalfMatrix::from_matrix(&m);
        let h2: HalfMatrix = serde_json::from_str(&serde_json::to_string(&h).unwrap()).unwrap();
        assert_eq!(h, h2);
        let q = Int8Matrix::from_matrix(&m);
        let q2: Int8Matrix = serde_json::from_str(&serde_json::to_string(&q).unwrap()).unwrap();
        assert_eq!(q, q2);
    }
}
