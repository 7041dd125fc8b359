//! Property-based tests of the tensor kernels: algebraic laws that must
//! hold for arbitrary finite inputs.

use proptest::prelude::*;
use scenerec_tensor::{linalg, numeric, Matrix};

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, len)
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f32..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (A + B) - B == A element-wise (within float tolerance).
    #[test]
    fn add_sub_inverse(a in matrix(3, 4), b in matrix(3, 4)) {
        let sum = linalg::add(&a, &b);
        let back = linalg::sub(&sum, &b);
        for (x, y) in back.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// matvec agrees with a row-by-row sum of products.
    #[test]
    fn matvec_consistent_with_matmul(a in matrix(4, 3), x in finite_vec(3..4)) {
        let via_mv = linalg::matvec(&a, &x);
        for (r, got) in via_mv.iter().enumerate() {
            let want: f32 = (0..3).map(|c| a.get(r, c) * x[c]).sum();
            prop_assert!((got - want).abs() < 1e-4);
        }
    }

    /// dot is symmetric and |dot| <= |a||b| (Cauchy–Schwarz).
    #[test]
    fn dot_laws(a in finite_vec(4..8)) {
        let b: Vec<f32> = a.iter().rev().copied().collect();
        let d1 = linalg::dot(&a, &b);
        let d2 = linalg::dot(&b, &a);
        prop_assert!((d1 - d2).abs() < 1e-4);
        let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>().sqrt();
        let bound = norm(&a) * norm(&b);
        prop_assert!(d1.abs() <= bound + 1e-3);
    }

    /// Softmax is invariant to constant shifts and orders by input.
    #[test]
    fn softmax_properties(xs in finite_vec(2..8), shift in -5.0f32..5.0) {
        let p1 = numeric::softmax(&xs);
        let shifted: Vec<f32> = xs.iter().map(|v| v + shift).collect();
        let p2 = numeric::softmax(&shifted);
        for (a, b) in p1.iter().zip(&p2) {
            prop_assert!((a - b).abs() < 1e-4);
        }
        // Larger logits never get smaller probabilities.
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                if xs[i] > xs[j] {
                    prop_assert!(p1[i] >= p1[j] - 1e-6);
                }
            }
        }
    }

    /// Cosine is bounded, symmetric, and scale-invariant for positive
    /// scaling.
    #[test]
    fn cosine_properties(a in finite_vec(3..6), scale in 0.1f32..10.0) {
        let b: Vec<f32> = a.iter().map(|v| v * 0.5 + 1.0).collect();
        let c1 = numeric::cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&c1));
        prop_assert!((c1 - numeric::cosine_similarity(&b, &a)).abs() < 1e-5);
        let scaled: Vec<f32> = a.iter().map(|v| v * scale).collect();
        let c2 = numeric::cosine_similarity(&scaled, &b);
        prop_assert!((c1 - c2).abs() < 1e-3);
    }

    /// σ(x) = eˣ·σ(−x) implies ln σ(x) = x + ln σ(−x); and ln σ is
    /// always ≤ 0.
    #[test]
    fn log_sigmoid_identity(x in -20.0f32..20.0) {
        let l = numeric::log_sigmoid(x);
        prop_assert!(l <= 0.0);
        let identity = x + numeric::log_sigmoid(-x);
        prop_assert!((l - identity).abs() < 1e-4, "l={l} identity={identity}");
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(m in matrix(3, 5)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }
}
