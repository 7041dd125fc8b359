//! Property tests of the dispatch contract: the scalar reference
//! kernels, the AVX2 kernels and the AVX-512 block kernel must agree
//! **bit for bit** on arbitrary shapes — remainder columns not divisible
//! by the vector width, x-row counts off the block's four, empty
//! matrices, `k = 0` — under both an explicit backend request and the
//! process-wide auto dispatch.
//!
//! On machines without AVX-512 the requested `Backend::Avx512` resolves
//! to AVX2 (and without AVX2 both resolve to scalar), so those rows
//! degenerate to comparisons the other rows already make; CI warns when
//! its runner lacks AVX-512 (and runs the suite once more with
//! `SCENEREC_FORCE_SCALAR=1`, which only changes the auto dispatch, not
//! the explicit requests).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenerec_tensor::quant::{self, Int8Matrix};
use scenerec_tensor::{linalg, score, Backend, Matrix};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

const BACKENDS: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Avx512];

/// Float bits with every NaN mapped to one pattern. Rust leaves a NaN
/// result's sign and payload unspecified, and the AVX2 tile's unfused
/// adds can return the other operand's NaN than the compiled scalar
/// loop does (`0x7fc0_0000` against `0xffc0_0000`), so parity on hostile
/// values is every non-NaN bit, and NaN-ness.
fn canon(bits: &[u32]) -> Vec<u32> {
    bits.iter()
        .map(|&b| {
            if f32::from_bits(b).is_nan() {
                u32::MAX
            } else {
                b
            }
        })
        .collect()
}

/// A value drawn mostly from a finite range, sometimes from the floats a
/// kernel must not reorder around: ±0.0, ±∞, subnormals and NaN.
fn hostile_value() -> impl Strategy<Value = f32> {
    const SPECIAL: [f32; 7] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::MIN_POSITIVE / 3.0,
        f32::NAN,
    ];
    (0usize..32, -4.0f32..4.0).prop_map(|(pick, finite)| match SPECIAL.get(pick) {
        Some(&special) => special,
        None => finite,
    })
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
            for backend in BACKENDS {
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
        for backend in BACKENDS {
            let mut out = vec![f32::NAN; n + 1];
            linalg::dot_rows_into_with_backend(x, rows, stride, &mut out[..n], backend);
            let got: Vec<u32> = out[..n].iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "strided dot_rows_into {:?}", backend);
            prop_assert!(out[n].is_nan(), "wrote past the output");
        }
    }

    /// The many-row entry over drawn shapes and hostile values: 0–9
    /// x-rows (whole groups of four for the AVX-512 block kernel, and
    /// the rest), 0–41 rows (the 8-row blocks and their remainder),
    /// widths 0–70 (the 8-lane body and its tail) and strides wider
    /// than the width. Every element must equal the scalar `dot` of its
    /// pair bit for bit under every backend request ([`canon`]: a NaN
    /// must stay NaN), and nothing may be written past the output.
    /// `score_bt` over the same values agrees across the three backends
    /// at 1, 2 and 3 threads.
    #[test]
    fn dot_rows_many_bit_exact_on_every_backend(
        m in 0usize..10,
        n in 0usize..42,
        k in 0usize..71,
        extra in 1usize..9,
        pool in prop::collection::vec(hostile_value(), 600),
        offset in 0usize..600,
    ) {
        let stride = k + extra;
        let draw = |i: usize| pool[(offset + i * 7) % pool.len()];
        let xs: Vec<Vec<f32>> = (0..m)
            .map(|q| (0..k).map(|j| draw(q * 71 + j)).collect())
            .collect();
        let rows: Vec<f32> = (0..n * stride).map(|i| draw(5000 + i)).collect();
        let want: Vec<u32> = xs
            .iter()
            .flat_map(|x| {
                let rows = &rows;
                (0..n).map(move |r| {
                    let row = &rows[r * stride..r * stride + k];
                    linalg::dot_with_backend(x, row, Backend::Scalar).to_bits()
                })
            })
            .collect();
        let want = canon(&want);
        let x_refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        for backend in BACKENDS {
            let mut out = vec![f32::NAN; m * n + 1];
            linalg::dot_rows_many_into_with_backend(
                &x_refs, &rows, stride, n, &mut out[..m * n], backend,
            );
            let got: Vec<u32> = out[..m * n].iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(canon(&got), want.clone(), "dot_rows_many_into {:?}", backend);
            prop_assert!(out[m * n].is_nan(), "wrote past the output");
        }
        let b_rows: Vec<f32> = (0..n).flat_map(|r| rows[r * stride..r * stride + k].to_vec()).collect();
        let a = Matrix::from_vec(m, k, xs.concat()).unwrap();
        let b = Matrix::from_vec(n, k, b_rows).unwrap();
        let bias: Vec<f32> = (0..n).map(|j| draw(9000 + j)).collect();
        let reference = score::try_score_bt_with_backend(&a, &b, Some(&bias), 1, Backend::Scalar).unwrap();
        for backend in BACKENDS {
            for threads in 1..=3 {
                let c = score::try_score_bt_with_backend(&a, &b, Some(&bias), threads, backend).unwrap();
                prop_assert_eq!(canon(&bits(&c)), canon(&bits(&reference)), "score_bt {:?} threads {}", backend, threads);
            }
        }
        let with_bias: Vec<u32> = (0..m * n)
            .map(|e| (f32::from_bits(want[e]) + bias[e % n]).to_bits())
            .collect();
        prop_assert_eq!(canon(&bits(&reference)), canon(&with_bias));
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

/// Signed zeros: x-rows of `-0.0` against positive rows (and `+0.0`
/// against negative ones) make every product `-0.0`. `dot` starts each
/// lane and the tail at `+0.0` and adds the product, so every element is
/// `+0.0`; an accumulator started at the first product would keep
/// `-0.0`. Groups of four, a remainder x-row, 8-row blocks with a
/// remainder, and widths with and without a lane tail, on every backend.
#[test]
fn negative_zero_products_sum_to_positive_zero_on_every_backend() {
    for k in [1usize, 7, 8, 9, 16, 21] {
        for (x_val, row_val) in [(-0.0f32, 1.5f32), (0.0, -2.0)] {
            let n = 19;
            let stride = k + 3;
            let xs = vec![vec![x_val; k]; 5];
            let x_refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
            let rows = vec![row_val; n * stride];
            let want = linalg::dot_with_backend(&xs[0], &rows[..k], Backend::Scalar);
            assert_eq!(want.to_bits(), 0.0f32.to_bits(), "k {k}");
            for backend in BACKENDS {
                let mut out = vec![f32::NAN; 5 * n];
                linalg::dot_rows_many_into_with_backend(
                    &x_refs, &rows, stride, n, &mut out, backend,
                );
                for (e, v) in out.iter().enumerate() {
                    assert_eq!(v.to_bits(), want.to_bits(), "k {k} {backend:?} element {e}");
                }
            }
        }
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
