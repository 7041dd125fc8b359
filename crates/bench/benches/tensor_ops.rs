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
            let mut out = vec![0.0f32; 2 * d];
            b.iter(|| linalg::matvec_t_into(&w, black_box(&y), black_box(&mut out)))
        });
    }
    group.finish();
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
    bench_softmax_cosine,
    bench_outer,
    bench_transpose
);
criterion_main!(benches);
