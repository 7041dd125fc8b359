//! Batched scoring for the serving path: `C = A·Bᵀ (+ bias)`, computed
//! dot-per-element.
//!
//! **Invariant.** Every element of [`score_bt`]'s output is
//! [`linalg::dot`] on its pair of rows, bit for bit, plus one scalar add
//! for the bias: the float sequence of the tape's `affine`/`dot`
//! operators. A frozen engine scoring through it therefore matches
//! `model.score_values` to the last bit, on either backend and at any
//! thread count.
//!
//! Each band of output rows is one [`linalg::dot_rows_many_into`] call
//! over all of `B`: under AVX-512 its block kernel scores four rows of
//! `A` against 8 rows of `B` per step, and the AVX2 tile scores one row
//! of `A` against 8, but both reduce every element in `dot`'s exact
//! order. Threads split the output into *row bands*, and no element
//! depends on the band it falls in or the rows that share its group of
//! four, so the result is bit-identical to scoring each row with
//! `linalg::matvec` + bias.

use crate::dispatch::{self, Backend};
use crate::error::{ShapeError, TensorResult};
use crate::linalg;
use crate::matrix::Matrix;
use crate::par;

/// `C = A·Bᵀ + bias` (shape-checked): `A` is `m x k`, `B` is `n x k`,
/// `bias` (when given) has length `n`, the result is `m x n` with
/// `C[i][j] = dot(A.row(i), B.row(j)) + bias[j]`.
///
/// Every element is [`linalg::dot`]'s value plus one scalar add — the
/// exact float sequence of the tape's `affine` operator (`matvec` then
/// `axpy(1.0, b, y)`) — so frozen-engine scores match tape scores bit for
/// bit. Each band of output rows is one [`linalg::dot_rows_many_into`]
/// call, which scores four rows of `A` at a time under AVX-512 and one
/// at a time otherwise, each element in `dot`'s order. `threads > 1`
/// splits the *output rows* into contiguous bands via
/// [`par::for_each_chunk_pair`]; per-element results do not depend on
/// the band boundaries or on which rows share a group of four, so the
/// output is bit-identical at any thread count.
pub fn try_score_bt(
    a: &Matrix,
    b: &Matrix,
    bias: Option<&[f32]>,
    threads: usize,
) -> TensorResult<Matrix> {
    try_score_bt_with_backend(a, b, bias, threads, dispatch::backend())
}

/// [`try_score_bt`] with an explicit backend request (degrades to AVX2,
/// then scalar, when the CPU lacks AVX-512 or AVX2). Bands go through
/// [`linalg::dot_rows_many_into_with_backend`], whose scalar side is one
/// [`linalg::dot_with_backend`] per element and whose AVX2 tile and
/// AVX-512 block kernel replay that float order — bit-identical across
/// backends, threads and bands.
pub fn try_score_bt_with_backend(
    a: &Matrix,
    b: &Matrix,
    bias: Option<&[f32]>,
    threads: usize,
    backend: Backend,
) -> TensorResult<Matrix> {
    let backend = dispatch::resolve(backend);
    if a.cols() != b.cols() {
        return Err(ShapeError::MatMul {
            lhs: a.shape(),
            rhs: (b.cols(), b.rows()),
        });
    }
    let (m, _k) = a.shape();
    let n = b.rows();
    if let Some(bias) = bias {
        if bias.len() != n {
            return Err(ShapeError::Mismatch {
                lhs: (bias.len(), 1),
                rhs: (n, 1),
                op: "score_bt bias",
            });
        }
    }
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(c);
    }
    let band = if threads <= 1 {
        m.max(1)
    } else {
        m.div_ceil(threads)
    };
    // Not `iter_rows`: at k = 0 it yields no rows, and each output row
    // still needs its bias.
    let a_rows: Vec<&[f32]> = (0..m).map(|i| a.row(i)).collect();
    par::for_each_chunk_pair(c.as_mut_slice(), band * n, &a_rows, band, |_, out, rows| {
        linalg::dot_rows_many_into_with_backend(rows, b.as_slice(), b.cols(), n, out, backend);
        if let Some(bias) = bias {
            for c_row in out.chunks_mut(n) {
                for (c_v, &b_v) in c_row.iter_mut().zip(bias) {
                    *c_v += b_v;
                }
            }
        }
    });
    Ok(c)
}

/// `C = A·Bᵀ + bias`, panicking on shape mismatch.
pub fn score_bt(a: &Matrix, b: &Matrix, bias: Option<&[f32]>, threads: usize) -> Matrix {
    try_score_bt(a, b, bias, threads).expect("score_bt shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: f32) -> Vec<f32> {
        let mut v = seed;
        (0..n)
            .map(|_| {
                v = (v * 1.9 + 0.13).fract() - 0.5;
                v
            })
            .collect()
    }

    #[test]
    fn matches_per_row_matvec_bitwise() {
        let (m, n, k) = (7, 13, 33);
        let a = Matrix::from_vec(m, k, pseudo(m * k, 0.3)).unwrap();
        let b = Matrix::from_vec(n, k, pseudo(n * k, 0.7)).unwrap();
        let bias = pseudo(n, 0.11);
        let c = score_bt(&a, &b, Some(&bias), 1);
        for i in 0..m {
            // The tape path: y = matvec(B, x); y += 1.0 * bias.
            let mut y = linalg::matvec(&b, a.row(i));
            linalg::axpy(1.0, &bias, &mut y);
            for (j, want) in y.iter().enumerate() {
                assert_eq!(
                    c.get(i, j).to_bits(),
                    want.to_bits(),
                    "element ({i},{j}) differs from the tape order"
                );
            }
        }
    }

    #[test]
    fn bit_identical_at_any_thread_count() {
        let (m, n, k) = (23, 57, 64);
        let a = Matrix::from_vec(m, k, pseudo(m * k, 0.21)).unwrap();
        let b = Matrix::from_vec(n, k, pseudo(n * k, 0.81)).unwrap();
        let base = score_bt(&a, &b, None, 1);
        for threads in [2usize, 3, 4, 8] {
            let c = score_bt(&a, &b, None, threads);
            assert_eq!(
                base.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn no_bias_equals_zero_free_sum() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let c = score_bt(&a, &b, None, 1);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 3.0, 4.0, 7.0]);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(try_score_bt(&a, &b, None, 1).is_err());
        let b2 = Matrix::zeros(4, 3);
        let bias = vec![0.0; 3]; // wrong: needs len 4
        assert!(try_score_bt(&a, &b2, Some(&bias), 1).is_err());
    }
}
