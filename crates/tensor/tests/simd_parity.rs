//! Property tests of the dispatch contract: the scalar reference
//! kernels and the AVX2 kernels must agree **bit for bit** on arbitrary
//! shapes — remainder columns not divisible by the vector width, empty
//! matrices, `k = 0` — under both an explicit backend request and the
//! process-wide auto dispatch.
//!
//! On machines without AVX2 the requested `Backend::Avx2` resolves to
//! scalar and these tests degenerate to scalar==scalar; CI runs them on
//! AVX2 hardware (and once more with `SCENEREC_FORCE_SCALAR=1`, which
//! only changes the auto dispatch, not the explicit requests).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenerec_tensor::quant::{self, Int8Matrix};
use scenerec_tensor::{linalg, score, Backend, Matrix};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-5.0f32..5.0))
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `dot`: scalar and AVX2 agree bitwise at every length, including
    /// the 8-lane remainder tail and the empty slice.
    #[test]
    fn dot_scalar_vs_avx2_bit_exact(
        len in 0usize..70,
        seed in prop::collection::vec(-10.0f32..10.0, 140),
    ) {
        let a = &seed[..len];
        let b = &seed[70..70 + len];
        let s = linalg::dot_with_backend(a, b, Backend::Scalar);
        let v = linalg::dot_with_backend(a, b, Backend::Avx2);
        let auto = linalg::dot(a, b);
        prop_assert_eq!(s.to_bits(), v.to_bits());
        prop_assert_eq!(s.to_bits(), auto.to_bits());
    }

    /// score_bt over drawn shapes: every `n % 8` row remainder of the
    /// 8-row tile and every `k % 8` lane tail, optional bias, several
    /// worker counts — the serving determinism contract across backends.
    /// Each element must also equal the scalar `dot` of its pair plus its
    /// bias, and the tile's other two entries (`dot_rows_into`, `matvec`)
    /// must give the same bits on the same rows.
    #[test]
    fn score_bt_scalar_vs_avx2_bit_exact(
        m in 0usize..10,
        n in 0usize..40,
        k in 0usize..70,
        bias_on in 0u32..2,
        threads in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let a = seeded(m, k, seed);
        let b = seeded(n, k, seed ^ 1);
        let bias = (bias_on == 1).then(|| seeded(1, n, seed ^ 2).as_slice().to_vec());
        let s = score::try_score_bt_with_backend(&a, &b, bias.as_deref(), threads, Backend::Scalar).unwrap();
        let v = score::try_score_bt_with_backend(&a, &b, bias.as_deref(), threads, Backend::Avx2).unwrap();
        let auto = score::try_score_bt(&a, &b, bias.as_deref(), threads).unwrap();
        prop_assert_eq!(bits(&s), bits(&v));
        prop_assert_eq!(bits(&s), bits(&auto));
        for i in 0..m {
            let x = a.row(i);
            let dots: Vec<u32> = (0..n)
                .map(|j| linalg::dot_with_backend(x, b.row(j), Backend::Scalar).to_bits())
                .collect();
            for (j, &dot) in dots.iter().enumerate() {
                let want = match &bias {
                    Some(bias) => (f32::from_bits(dot) + bias[j]).to_bits(),
                    None => dot,
                };
                prop_assert_eq!(v.get(i, j).to_bits(), want, "element ({}, {})", i, j);
            }
            for backend in [Backend::Scalar, Backend::Avx2] {
                let mut out = vec![f32::NAN; n];
                linalg::dot_rows_into_with_backend(x, b.as_slice(), k, &mut out, backend);
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&got, &dots, "dot_rows_into {:?}", backend);
            }
            let y = linalg::try_matvec(&b, x).unwrap();
            let got: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &dots, "matvec");
        }
    }

    /// Strided `dot_rows_into`: rows read as a column window
    /// `offset..offset + k` of a wider `n x stride` matrix, with
    /// `stride > k`, `k` off the 8-lane width and `n` off the 8-row tile.
    /// Scalar and AVX2 must equal the scalar `dot` of each row's window
    /// bit for bit, and write nothing past `out`.
    #[test]
    fn strided_dot_rows_scalar_vs_avx2_bit_exact(
        n in 0usize..30,
        k in 0usize..40,
        extra in 1usize..40,
        offset_pick in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let stride = k + extra;
        let offset = offset_pick % (extra + 1);
        let wide = seeded(n, stride, seed);
        let x = seeded(1, k, seed ^ 3);
        let x = x.as_slice();
        let rows = &wide.as_slice()[offset.min(wide.as_slice().len())..];
        let want: Vec<u32> = (0..n)
            .map(|r| {
                let row = &wide.row(r)[offset..offset + k];
                linalg::dot_with_backend(x, row, Backend::Scalar).to_bits()
            })
            .collect();
        for backend in [Backend::Scalar, Backend::Avx2] {
            let mut out = vec![f32::NAN; n + 1];
            linalg::dot_rows_into_with_backend(x, rows, stride, &mut out[..n], backend);
            let got: Vec<u32> = out[..n].iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "strided dot_rows_into {:?}", backend);
            prop_assert!(out[n].is_nan(), "wrote past the output");
        }
    }

    /// Mixed-precision dots: f16 (same float order) and int8 (exact
    /// integer arithmetic) agree bitwise across backends.
    #[test]
    fn quant_dots_scalar_vs_avx2_bit_exact(
        len in 0usize..70,
        seed in prop::collection::vec(-3.0f32..3.0, 70),
        zv_raw in 0u32..256,
    ) {
        let zv = zv_raw as i16 - 128;
        let a = &seed[..len];
        let hb: Vec<u16> = a.iter().map(|&x| quant::f32_to_f16(x)).collect();
        let s = quant::dot_f16_with_backend(a, &hb, Backend::Scalar);
        let v = quant::dot_f16_with_backend(a, &hb, Backend::Avx2);
        prop_assert_eq!(s.to_bits(), v.to_bits());

        let uc: Vec<i16> = (0..len).map(|i| ((i as i16) * 37) % 256 - 128).collect();
        let q: Vec<i8> = (0..len).map(|i| (((i as i32) * 91) % 256 - 128) as i8).collect();
        let si = quant::dot_i8_centered_with_backend(&uc, &q, zv, Backend::Scalar);
        let vi = quant::dot_i8_centered_with_backend(&uc, &q, zv, Backend::Avx2);
        prop_assert_eq!(si, vi);
    }
}

/// Degenerate shapes, plus a `k = 0` full tile (2, 0, 16) and a
/// tail-only tile (1, 5, 8).
#[test]
fn score_bt_empty_and_k_zero_match_across_backends() {
    for (m, k, n) in [
        (0usize, 4usize, 3usize),
        (2, 0, 3),
        (2, 4, 0),
        (2, 0, 16),
        (1, 5, 8),
    ] {
        let a = seeded(m, k, 7);
        let b = seeded(n, k, 8);
        let s = score::try_score_bt_with_backend(&a, &b, None, 2, Backend::Scalar).unwrap();
        let v = score::try_score_bt_with_backend(&a, &b, None, 2, Backend::Avx2).unwrap();
        assert_eq!(s.shape(), (m, n));
        assert_eq!(bits(&s), bits(&v), "({m},{k},{n})");
    }
}

/// int8 scoring is *identical* (not just close) across backends because
/// the accumulation is exact integer arithmetic, even through the final
/// f32 rescale.
#[test]
fn int8_rescaled_scores_bit_exact_across_backends() {
    let dim = 129;
    let users = Matrix::from_vec(
        4,
        dim,
        (0..4 * dim)
            .map(|i| ((i % 31) as f32 - 15.0) / 9.0)
            .collect(),
    )
    .unwrap();
    let items = Matrix::from_vec(
        7,
        dim,
        (0..7 * dim)
            .map(|i| ((i % 29) as f32 - 14.0) / 8.0)
            .collect(),
    )
    .unwrap();
    let qu = Int8Matrix::from_matrix(&users);
    let qi = Int8Matrix::from_matrix(&items);
    for u in 0..4 {
        let uc = qu.centered_row(u);
        let su = qu.scale(u);
        for it in 0..7 {
            let zv = qi.zero_point(it) as i16;
            let s = quant::dot_i8_centered_with_backend(&uc, qi.row(it), zv, Backend::Scalar);
            let v = quant::dot_i8_centered_with_backend(&uc, qi.row(it), zv, Backend::Avx2);
            assert_eq!(s, v);
            let score_s = su * qi.scale(it) * s as f32;
            let score_v = su * qi.scale(it) * v as f32;
            assert_eq!(score_s.to_bits(), score_v.to_bits());
        }
    }
}
