//! Kernel speedup report: the serve scoring kernel (`score_bt`) at both
//! dispatch backends (forced scalar vs runtime-detected SIMD) across a
//! size sweep.
//!
//! ```text
//! cargo run -p scenerec-bench --bin kernels --release -- \
//!     [--sizes 64,128,256,512] [--reps 5] [--out results/BENCH_kernels.json]
//! ```
//!
//! Writes a `BENCH_kernels.json` run manifest under `results/` recording
//! per-size wall times, GFLOP/s and the SIMD-over-forced-scalar speedup
//! of `score_bt`, whose SIMD side is the 8-row AVX2 dot tile behind
//! every score in the workspace, and on AVX-512 CPUs the block kernel
//! that scores four of its rows at once. The manifest records which
//! backend the runtime dispatch resolved (`kernel_backend`), so diffs
//! across machines with different SIMD features are detectable. This
//! file is
//! the evidence behind the "Performance" sections of README.md and
//! DESIGN.md and is gated in CI by `bench_diff`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scenerec_bench::cli::Args;
use scenerec_obs::RunManifest;
use scenerec_tensor::{backend_name, score, Backend, Initializer, Matrix};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One size's timings (best-of-`reps` wall time, nanoseconds).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelRow {
    size: usize,
    score_scalar_ns: u64,
    score_simd_ns: u64,
    score_simd_gflops: f64,
    /// Forced-scalar over dispatched `score_bt`: the dot-tile win.
    score_simd_speedup: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelsConfig {
    sizes: Vec<usize>,
    reps: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelResults {
    rows: Vec<KernelRow>,
    /// `score_simd_speedup` at the largest swept size — the headline
    /// dot-tile number (scalar-only hosts report ~1.0 here by
    /// construction).
    score_simd_speedup_at_max_size: f64,
}

/// Best-of-`reps` wall time of `f`, consuming the result so the work is
/// not optimized away.
fn best_ns(reps: usize, mut f: impl FnMut() -> Matrix) -> u64 {
    let mut best = u64::MAX;
    let mut sink = 0.0f32;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_nanos() as u64);
        sink += out.get(0, 0);
    }
    assert!(sink.is_finite());
    best
}

fn main() {
    let args = Args::from_env();
    let sizes: Vec<usize> = args
        .get("sizes")
        .unwrap_or("64,128,256,512")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .expect("--sizes wants comma-separated ints")
        })
        .collect();
    let reps: usize = args.get_or("reps", 5);

    println!(
        "score_bt sweep (best of {reps} reps, one thread, backend {})\n",
        backend_name()
    );
    println!(
        "{:>6} {:>11} {:>11} {:>8} {:>7}",
        "size", "scalar_ms", "simd_ms", "gflops", "simd_x"
    );

    let mut rng = StdRng::seed_from_u64(2021);
    let mut rows = Vec::new();
    for &d in &sizes {
        let a = Initializer::XavierUniform.init(d, d, &mut rng);
        let b = Initializer::XavierUniform.init(d, d, &mut rng);
        let score_scalar_ns = best_ns(reps, || {
            score::try_score_bt_with_backend(&a, &b, None, 1, Backend::Scalar)
                .expect("score_bt shapes")
        });
        let score_simd_ns = best_ns(reps, || score::score_bt(&a, &b, None, 1));
        // One multiply and one add per element of each of the d^2 dots of
        // length d: 2*d^3 FLOPs.
        let flops = 2.0 * (d as f64).powi(3);
        let row = KernelRow {
            size: d,
            score_scalar_ns,
            score_simd_ns,
            score_simd_gflops: flops / score_simd_ns.max(1) as f64,
            score_simd_speedup: score_scalar_ns as f64 / score_simd_ns.max(1) as f64,
        };
        println!(
            "{:>6} {:>11.3} {:>11.3} {:>8.2} {:>6.2}x",
            d,
            score_scalar_ns as f64 / 1e6,
            score_simd_ns as f64 / 1e6,
            row.score_simd_gflops,
            row.score_simd_speedup,
        );
        rows.push(row);
    }

    let headline = rows.last().map(|r| r.score_simd_speedup).unwrap_or(1.0);
    println!(
        "\n{} score_bt over forced-scalar at the largest size: {headline:.2}x",
        backend_name()
    );

    let out = args.get("out").unwrap_or("results/BENCH_kernels.json");
    let manifest = RunManifest::new("kernels")
        .with_config(&KernelsConfig { sizes, reps })
        .with_kernel_backend(backend_name())
        .with_results(&KernelResults {
            rows,
            score_simd_speedup_at_max_size: headline,
        })
        .capture_telemetry(&[]);
    manifest
        .write_json(out)
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("[kernels] wrote {out}");
}
