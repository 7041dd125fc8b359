//! Micro-benchmarks of the tensor substrate hot paths: the kernels every
//! forward/backward pass is built from.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenerec_tensor::{linalg, numeric, Initializer, Matrix};

fn bench_matvec(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("matvec");
    for d in [32usize, 64, 128] {
        let w = Initializer::XavierUniform.init(d, 2 * d, &mut rng);
        let x: Vec<f32> = (0..2 * d).map(|i| i as f32 * 0.01).collect();
        group.bench_function(format!("{d}x{}", 2 * d), |b| {
            b.iter(|| black_box(linalg::matvec(&w, black_box(&x))))
        });
        group.bench_function(format!("t_{d}x{}", 2 * d), |b| {
            let y: Vec<f32> = (0..d).map(|i| i as f32 * 0.01).collect();
            b.iter(|| black_box(linalg::matvec_t(&w, black_box(&y))))
        });
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let a = Initializer::XavierUniform.init(64, 64, &mut rng);
    let b64 = Initializer::XavierUniform.init(64, 64, &mut rng);
    c.bench_function("matmul_64x64", |b| {
        b.iter(|| black_box(linalg::matmul(black_box(&a), black_box(&b64))))
    });
}

/// GEMM size sweep: seed-style naive loop vs blocked kernel (1 thread)
/// vs threaded dispatch, plus the transpose-absorbing variants. Sizes
/// climb to 1024 so the blocked kernel's cache behaviour shows; sample
/// counts shrink with size to keep the sweep bounded.
fn bench_gemm_sweep(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("gemm");
    for d in [64usize, 128, 256, 512, 1024] {
        let a = Initializer::XavierUniform.init(d, d, &mut rng);
        let b_op = Initializer::XavierUniform.init(d, d, &mut rng);
        group.sample_size(match d {
            0..=128 => 50,
            129..=512 => 15,
            _ => 10,
        });
        if d <= 256 {
            // The naive loop at 512+ is too slow to sample meaningfully
            // here; the `kernels` bin covers the large-size comparison.
            group.bench_function(format!("naive_{d}"), |bch| {
                bch.iter(|| black_box(linalg::matmul_naive(black_box(&a), black_box(&b_op))))
            });
        }
        group.bench_function(format!("blocked_{d}"), |bch| {
            bch.iter(|| {
                black_box(scenerec_tensor::gemm::gemm(
                    black_box(&a),
                    false,
                    black_box(&b_op),
                    false,
                    1,
                ))
            })
        });
        group.bench_function(format!("threaded_{d}"), |bch| {
            bch.iter(|| {
                black_box(scenerec_tensor::gemm::gemm(
                    black_box(&a),
                    false,
                    black_box(&b_op),
                    false,
                    0,
                ))
            })
        });
        group.bench_function(format!("at_{d}"), |bch| {
            bch.iter(|| black_box(linalg::matmul_at(black_box(&a), black_box(&b_op))))
        });
        group.bench_function(format!("bt_{d}"), |bch| {
            bch.iter(|| black_box(linalg::matmul_bt(black_box(&a), black_box(&b_op))))
        });
    }
    group.finish();
}

fn bench_row_aggregation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let table = Initializer::XavierUniform.init(50_000, 64, &mut rng);
    let rows: Vec<usize> = (0..300).map(|i| i * 97 % 50_000).collect();
    c.bench_function("sum_300_rows_of_50k_table", |b| {
        b.iter(|| black_box(linalg::sum_rows(rows.iter().map(|&r| table.row(r)), 64)))
    });
}

fn bench_softmax_cosine(c: &mut Criterion) {
    let xs: Vec<f32> = (0..300).map(|i| (i as f32 * 0.37).sin()).collect();
    c.bench_function("softmax_300", |b| {
        b.iter(|| black_box(numeric::softmax(black_box(&xs))))
    });
    let a: Vec<f32> = (0..64).map(|i| (i as f32 * 0.1).cos()).collect();
    let bb: Vec<f32> = (0..64).map(|i| (i as f32 * 0.2).sin()).collect();
    c.bench_function("cosine_64", |b| {
        b.iter(|| black_box(numeric::cosine_similarity(black_box(&a), black_box(&bb))))
    });
}

fn bench_outer(c: &mut Criterion) {
    let x: Vec<f32> = (0..64).map(|i| i as f32 * 0.01).collect();
    let y: Vec<f32> = (0..128).map(|i| i as f32 * 0.02).collect();
    let mut a = vec![0.0f32; 64 * 128];
    c.bench_function("add_outer_64x128", |b| {
        b.iter(|| linalg::add_outer(black_box(&mut a), 128, black_box(&x), black_box(&y)))
    });
}

fn bench_transpose(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let m = Initializer::XavierUniform.init(128, 64, &mut rng);
    c.bench_function("transpose_128x64", |b| {
        b.iter(|| black_box(Matrix::transpose(black_box(&m))))
    });
}

criterion_group!(
    benches,
    bench_matvec,
    bench_matmul,
    bench_gemm_sweep,
    bench_row_aggregation,
    bench_softmax_cosine,
    bench_outer,
    bench_transpose
);
criterion_main!(benches);
