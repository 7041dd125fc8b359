//! Linear-algebra kernels over [`Matrix`] operands and `f32` slices:
//! matrix–vector products, the rank-1 update, AXPY, dot products and
//! element-wise arithmetic.
//!
//! There is no matrix–matrix product. SceneRec's forward pass is built
//! from one-vector affine maps, neighbour sums and cosines, and its
//! backward pass from transposed matvecs and rank-1 updates; a batch of
//! scores is [`crate::score::score_bt`], one [`dot_rows_many_into`] over
//! its rows.
//!
//! Shape-checked kernels come in a fallible `try_*` form plus a panicking
//! wrapper for call sites whose shapes were validated at model
//! construction time. The inner loops operate on contiguous row slices so
//! LLVM can auto-vectorize them.

use crate::dispatch::{self, Backend};
use crate::error::{ShapeError, TensorResult};
use crate::matrix::Matrix;

/// `y = A * x` for a column vector `x` given as a slice; returns `Vec` of
/// length `A.rows()`. Each `y[r]` is [`dot`]`(x, A.row(r))` bit for bit,
/// computed by [`dot_rows_into`].
pub fn try_matvec(a: &Matrix, x: &[f32]) -> TensorResult<Vec<f32>> {
    if a.cols() != x.len() {
        return Err(ShapeError::MatMul {
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    let mut y = vec![0.0f32; a.rows()];
    dot_rows_into(x, a.as_slice(), a.cols(), &mut y);
    Ok(y)
}

/// `y = A * x`, panicking on shape mismatch.
pub fn matvec(a: &Matrix, x: &[f32]) -> Vec<f32> {
    try_matvec(a, x).expect("matvec shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// `y = Aᵀ·x` into a caller-owned buffer, without materializing the
/// transpose: zeroes `y`, then adds `x[r] * A.row(r)` for every row with
/// `x[r] != 0`, in row order.
///
/// # Panics
/// Panics if `x.len() != A.rows()` or `y.len() != A.cols()`.
pub fn matvec_t_into(a: &Matrix, x: &[f32], y: &mut [f32]) {
    assert_eq!(a.rows(), x.len(), "matvec_t shape mismatch");
    y.fill(0.0);
    for (row, &xv) in a.iter_rows().zip(x) {
        if xv == 0.0 {
            continue;
        }
        axpy(xv, row, y);
    }
}

/// Dot product of two equal-length slices, routed through the
/// process-wide [`crate::dispatch::backend`].
///
/// Accumulates into 8 independent partial sums reduced in a fixed
/// pairwise order; the AVX2 kernel replays the identical per-lane
/// operation sequence, so the result is deterministic for given inputs,
/// and every non-NaN result is bit-identical across backends. A NaN
/// result stays NaN, but its sign and payload may differ by backend
/// (two NaN operands of one add return whichever the instruction
/// picks). Neither serving's top-K nor a response byte depends on that:
/// the selection's key puts every NaN in one class, and responses print
/// `NaN`.
///
/// # Panics
/// Panics if lengths differ (programming error at this level).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with_backend(a, b, dispatch::backend())
}

/// [`dot`] with an explicit backend request (degrades to scalar when the
/// CPU lacks AVX2). Bit-identical across backends for every non-NaN
/// result, as [`dot`] is; used by parity tests that need both kernels
/// in one process.
pub fn dot_with_backend(a: &[f32], b: &[f32], backend: Backend) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    #[cfg(target_arch = "x86_64")]
    if dispatch::resolve(backend).has_avx2() {
        // SAFETY: a resolved backend has AVX2 kernels only when the
        // guarding dispatch check (`detect_cpu`) saw avx2+fma+f16c.
        return unsafe { crate::simd::dot_avx2(a, b) };
    }
    let _ = backend;
    dot_scalar(a, b)
}

/// `out[r] = dot(x, row r)` for `out.len()` rows of `rows`, row `r`
/// being `rows[r * stride..r * stride + x.len()]`, routed through the
/// process-wide [`crate::dispatch::backend`].
///
/// This is the one-x-row dot-per-element loop of the workspace:
/// `matvec`, the serving engine and the tape call it, and its many-row
/// sibling [`dot_rows_many_into`] (behind `score::score_bt`) falls back
/// to it for every x-row outside a block of four. `stride == x.len()`
/// walks a contiguous row-major block; a wider stride reads a column
/// window of a wider matrix in place (the serving engine's and the
/// tape's split first layer dot each half of `W` this way). Every output
/// is bit-identical to [`dot`] on the same pair, on every backend. The
/// AVX2 kernel (which `Avx512` runs too) dots `x` against 8 rows per
/// step, each row in `dot`'s float order (see `crate::simd`); the rows
/// past the last multiple of 8 go through [`dot_with_backend`].
///
/// # Panics
/// Panics if `rows` is shorter than `(out.len() - 1) * stride + x.len()`
/// (nothing is read when `out` is empty).
#[inline]
pub fn dot_rows_into(x: &[f32], rows: &[f32], stride: usize, out: &mut [f32]) {
    dot_rows_into_with_backend(x, rows, stride, out, dispatch::backend())
}

/// [`dot_rows_into`] with an explicit backend request (degrades to
/// scalar when the CPU lacks AVX2). The scalar side is a plain
/// [`dot_with_backend`] per row, the reference the tile must match.
pub fn dot_rows_into_with_backend(
    x: &[f32],
    rows: &[f32],
    stride: usize,
    out: &mut [f32],
    backend: Backend,
) {
    let k = x.len();
    let n = out.len();
    if n == 0 {
        return;
    }
    let needed = (n - 1).saturating_mul(stride).saturating_add(k);
    assert!(rows.len() >= needed, "dot_rows length mismatch");
    #[cfg(target_arch = "x86_64")]
    let done = if dispatch::resolve(backend).has_avx2() {
        let done = n - n % 8;
        // SAFETY: `detect_cpu` saw avx2+fma+f16c (the resolved backend has
        // AVX2 kernels); `done` is a multiple of 8 and at most `n`.
        unsafe { crate::simd::dot_rows_avx2(x, rows, stride, &mut out[..done]) };
        done
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (r, o) in out.iter_mut().enumerate().skip(done) {
        *o = dot_with_backend(x, &rows[r * stride..r * stride + k], backend);
    }
}

/// The x-rows [`dot_rows_many_into`]'s AVX-512 block kernel scores per
/// step: callers that group requests for it group this many.
pub const BLOCK_X_ROWS: usize = 4;

/// `out[i * n + r] = dot(xs[i], row r)` for every x-row `i` and each of
/// the `n` rows of `rows` (row `r` being `rows[r * stride..r * stride +
/// k]`, `k` the x-rows' common length), routed through the process-wide
/// [`crate::dispatch::backend`]: the many-row sibling of
/// [`dot_rows_into`], which [`crate::score::score_bt`] and the serving
/// engine's grouped misses call.
///
/// Every output is bit-identical to [`dot`] on its pair, on every
/// backend. Under `Avx512` each group of [`BLOCK_X_ROWS`] x-rows goes
/// through the AVX-512 block kernel, which reads each 8-row block of
/// `rows` once for the whole group and reduces every (x-row, row) pair
/// in `dot`'s order (see `crate::simd`); the rows past the last multiple
/// of 8, the x-rows past the last whole group, and every x-row on the
/// other backends go through [`dot_rows_into`].
///
/// # Panics
/// Panics if the x-rows differ in length, if `out.len() != xs.len() *
/// n`, or if `rows` is shorter than `(n - 1) * stride + k` (nothing is
/// read when `n` or `xs` is empty).
#[inline]
pub fn dot_rows_many_into(xs: &[&[f32]], rows: &[f32], stride: usize, n: usize, out: &mut [f32]) {
    dot_rows_many_into_with_backend(xs, rows, stride, n, out, dispatch::backend())
}

/// [`dot_rows_many_into`] with an explicit backend request (degrades to
/// AVX2, then scalar, when the CPU lacks AVX-512). Bit-identical across
/// backends.
pub fn dot_rows_many_into_with_backend(
    xs: &[&[f32]],
    rows: &[f32],
    stride: usize,
    n: usize,
    out: &mut [f32],
    backend: Backend,
) {
    let k = xs.first().map_or(0, |x| x.len());
    assert!(
        xs.iter().all(|x| x.len() == k),
        "dot_rows_many x-rows differ in length"
    );
    assert_eq!(
        out.len(),
        xs.len().saturating_mul(n),
        "dot_rows_many output mismatch"
    );
    if n == 0 || xs.is_empty() {
        return;
    }
    let needed = (n - 1).saturating_mul(stride).saturating_add(k);
    assert!(rows.len() >= needed, "dot_rows_many length mismatch");
    #[cfg(target_arch = "x86_64")]
    let grouped = if dispatch::resolve(backend) == Backend::Avx512 {
        let done = n - n % 8;
        let groups = xs
            .chunks_exact(BLOCK_X_ROWS)
            .zip(out.chunks_exact_mut(BLOCK_X_ROWS * n));
        for (x4, out4) in groups {
            let x4 = [x4[0], x4[1], x4[2], x4[3]];
            // SAFETY: `resolve` returns Avx512 only when the guarding
            // dispatch check (`detect_cpu`) saw avx512f+avx512dq and the
            // AVX2 set; the kernel bounds-checks every slice it loads.
            unsafe { crate::simd::dot_rows4_avx512(x4, rows, stride, n, out4) };
            if done < n {
                for (x, o) in x4.iter().zip(out4.chunks_exact_mut(n)) {
                    let rest = &rows[done * stride..];
                    dot_rows_into_with_backend(x, rest, stride, &mut o[done..], backend);
                }
            }
        }
        xs.len() - xs.len() % BLOCK_X_ROWS
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let grouped = 0;
    let rest = xs[grouped..]
        .iter()
        .zip(out[grouped * n..].chunks_exact_mut(n));
    for (x, o) in rest {
        dot_rows_into_with_backend(x, rows, stride, o, backend);
    }
}

/// The scalar reference dot: 8 independent partial sums so the loop
/// carries no serial FP dependency chain and LLVM keeps it in vector
/// registers even on the portable build.
pub(crate) fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let main = a.len() - a.len() % LANES;
    for (ca, cb) in a[..main]
        .chunks_exact(LANES)
        .zip(b[..main].chunks_exact(LANES))
    {
        for ((av, bv), lane) in ca.iter().zip(cb).zip(acc.iter_mut()) {
            *lane += av * bv;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        tail += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// `y += alpha * x` in place.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `y *= alpha` in place.
#[inline]
pub fn scale(alpha: f32, y: &mut [f32]) {
    for v in y {
        *v *= alpha;
    }
}

/// Element-wise `A + B`.
pub fn try_add(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    elementwise(a, b, "add", |x, y| x + y)
}

/// Element-wise `A - B`.
pub fn try_sub(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    elementwise(a, b, "sub", |x, y| x - y)
}

/// Element-wise (Hadamard) product `A ⊙ B`.
pub fn try_hadamard(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    elementwise(a, b, "hadamard", |x, y| x * y)
}

/// Element-wise `A + B`, panicking on shape mismatch.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    try_add(a, b).expect("add shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// Element-wise `A - B`, panicking on shape mismatch.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    try_sub(a, b).expect("sub shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// Element-wise product, panicking on shape mismatch.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    try_hadamard(a, b).expect("hadamard shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

fn elementwise(
    a: &Matrix,
    b: &Matrix,
    op: &'static str,
    f: impl Fn(f32, f32) -> f32,
) -> TensorResult<Matrix> {
    if a.shape() != b.shape() {
        return Err(ShapeError::Mismatch {
            lhs: a.shape(),
            rhs: b.shape(),
            op,
        });
    }
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// The rank-1 update `A += x yᵀ` in place, row `r` of `A` being
/// `a[r * stride..r * stride + y.len()]`.
///
/// Each element becomes `a + x[r] * y[c]`: a multiply, then an add, never
/// fused. Rows with `x[r] == 0` are skipped, so a zero upstream gradient
/// leaves its row untouched even where `y` holds an infinity (`0 · ∞`
/// would be NaN). `stride == y.len()` walks a contiguous row-major block;
/// a wider stride updates a column window of a wider matrix in place (the
/// tape's split first layer writes each half of `∂W` this way).
///
/// # Panics
/// Panics if `a` is shorter than `(x.len() - 1) * stride + y.len()`.
pub fn add_outer(a: &mut [f32], stride: usize, x: &[f32], y: &[f32]) {
    let n = y.len();
    let Some(last) = x.len().checked_sub(1) else {
        return;
    };
    let needed = last.saturating_mul(stride).saturating_add(n);
    assert!(a.len() >= needed, "add_outer length mismatch");
    for (r, &xv) in x.iter().enumerate() {
        if xv == 0.0 {
            continue;
        }
        for (av, &yv) in a[r * stride..r * stride + n].iter_mut().zip(y) {
            *av += xv * yv;
        }
    }
}

/// `A += alpha * B` in place (shape-checked).
pub fn try_add_scaled(a: &mut Matrix, alpha: f32, b: &Matrix) -> TensorResult<()> {
    if a.shape() != b.shape() {
        return Err(ShapeError::Mismatch {
            lhs: a.shape(),
            rhs: b.shape(),
            op: "add_scaled",
        });
    }
    axpy(alpha, b.as_slice(), a.as_mut_slice());
    Ok(())
}

/// `A += alpha * B`, panicking on shape mismatch.
pub fn add_scaled(a: &mut Matrix, alpha: f32, b: &Matrix) {
    try_add_scaled(a, alpha, b).expect("add_scaled shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = [1.0, -1.0];
        let y = matvec(&a, &x);
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn dot_and_axpy() {
        assert!(close(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0));
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(add(&a, &b).as_slice(), &[4.0, 6.0]);
        assert_eq!(sub(&a, &b).as_slice(), &[-2.0, -2.0]);
        assert_eq!(hadamard(&a, &b).as_slice(), &[3.0, 8.0]);
    }

    #[test]
    fn elementwise_rejects_mismatch() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert!(try_add(&a, &b).is_err());
        assert!(try_sub(&a, &b).is_err());
        assert!(try_hadamard(&a, &b).is_err());
    }

    #[test]
    fn add_outer_updates_rows_in_place() {
        let mut a = vec![1.0f32; 6];
        add_outer(&mut a, 3, &[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(a, vec![4.0, 5.0, 6.0, 7.0, 9.0, 11.0]);
        // A column window: stride 3, two columns starting at column 1.
        let mut w = vec![0.0f32; 6];
        add_outer(&mut w[1..], 3, &[1.0, -1.0], &[2.0, 3.0]);
        assert_eq!(w, vec![0.0, 2.0, 3.0, 0.0, -2.0, -3.0]);
    }

    #[test]
    fn add_outer_skips_zero_rows_even_against_infinity() {
        let mut a = vec![0.0f32; 4];
        add_outer(&mut a, 2, &[0.0, 1.0], &[f32::INFINITY, 1.0]);
        assert_eq!(a[..2], [0.0, 0.0]);
        assert_eq!(a[2..], [f32::INFINITY, 1.0]);
    }

    #[test]
    fn matvec_t_into_matches_matvec_t() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = [0.5, 0.0, -1.0];
        let mut y = vec![9.0f32; 2];
        matvec_t_into(&a, &x, &mut y);
        assert_eq!(y, matvec(&a.transpose(), &x));
    }

    #[test]
    fn add_scaled_in_place() {
        let mut a = Matrix::full(1, 3, 1.0);
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        add_scaled(&mut a, 0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn dot_long_matches_scalar_reference() {
        // Length chosen to exercise both the 8-lane body and the tail.
        let a: Vec<f32> = (0..37).map(|i| (i as f32) * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..37).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let reference: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (*x as f64) * (*y as f64))
            .sum();
        assert!((dot(&a, &b) as f64 - reference).abs() < 1e-4);
    }
}
