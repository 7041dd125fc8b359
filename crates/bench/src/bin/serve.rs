//! Serving throughput report: per-request tape scoring (`top_k_unseen`)
//! vs the frozen batched engine (`scenerec-serve`, one shard) replaying
//! the same request log at several worker counts.
//!
//! ```text
//! cargo run -p scenerec-bench --bin serve --release -- \
//!     [--requests 2000] [--baseline-requests 200] [--k 10] \
//!     [--workers 1,2,4] [--epochs 2] [--out results/BENCH_serve.json]
//! ```
//!
//! Before timing anything the binary asserts engine/tape parity on a few
//! users, so the reported speedup compares paths that provably return
//! the same recommendations. Writes a `BENCH_serve.json` run manifest
//! with baseline and per-worker-count throughput, freeze cost, and
//! latency p50/p99/p999 from the serve-side `serve/latency_ns`
//! histogram. The engine has one shard, and the scheduler pins each
//! shard to one worker, so every `--workers` entry serves on one busy
//! worker: the sweep pins worker-count invariance, not scaling.
//!
//! With `--trace-out <path>` the binary additionally runs one traced
//! cold replay (workers=1), writes its Chrome trace-event JSON (load it
//! at `chrome://tracing` or <https://ui.perfetto.dev>), and asserts that
//! the span *structure* digest is identical across every `--workers`
//! entry — the serving path's determinism contract.
//!
//! The run ends with a quantized-precision sweep: a BPR-MF dot-bias
//! model (`--precision-dim`, default 128) frozen at f32/f16/int8,
//! served cache-off so warm req/s measures the scoring kernels, plus
//! top-20 overlap of each quantized engine against the f32 engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenerec_baselines::BprMf;
use scenerec_bench::cli::Args;
use scenerec_bench::HarnessConfig;
use scenerec_core::trainer::train;
use scenerec_core::{top_k_unseen, Precision, SceneRec, SceneRecConfig};
use scenerec_data::{generate, DatasetProfile};
use scenerec_graph::{ItemId, UserId};
use scenerec_obs::{chrome_trace_json, metrics, reset_metrics, structure_digest, RunManifest};
use scenerec_serve::{
    latency_edges, replay_sharded, replay_sharded_with, EngineConfig, ReplayOptions, Request,
    ShardReplayConfig, ShardedConfig, ShardedEngine, TimedRequest,
};
use scenerec_tensor::backend_name;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::time::Instant;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeConfig {
    requests: usize,
    baseline_requests: usize,
    k: usize,
    workers: Vec<usize>,
    epochs: usize,
    num_users: u32,
    num_items: u32,
    precision_dim: usize,
    overlap_k: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Throughput {
    requests: usize,
    total_ns: u64,
    per_request_ns: f64,
    requests_per_sec: f64,
}

impl Throughput {
    fn from_run(requests: usize, total_ns: u64) -> Self {
        Throughput {
            requests,
            total_ns,
            per_request_ns: total_ns as f64 / requests.max(1) as f64,
            requests_per_sec: requests as f64 / (total_ns as f64 / 1e9),
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct WorkerRun {
    workers: usize,
    cold: Throughput,
    warm: Throughput,
    cold_latency_p50_ns: f64,
    cold_latency_p99_ns: f64,
    cold_latency_p999_ns: f64,
    speedup_vs_baseline: f64,
}

/// One precision's cache-off serving numbers on the BPR-MF dot-bias
/// engine. `warm` replays the same log a second time, so it measures
/// steady-state scoring-kernel throughput, not cache hits.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PrecisionRun {
    precision: String,
    freeze_ns: u64,
    cold: Throughput,
    warm: Throughput,
    warm_speedup_vs_f32: f64,
    /// Mean top-20 overlap against the f32 engine (1.0 for f32 itself).
    top20_overlap_vs_f32: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeResults {
    baseline: Throughput,
    freeze_ns: u64,
    runs: Vec<WorkerRun>,
    best_speedup_vs_baseline: f64,
    precisions: Vec<PrecisionRun>,
    int8_speedup_vs_f32_warm: f64,
}

fn main() {
    let args = Args::from_env();
    let hc = HarnessConfig::default();
    let num_requests: usize = args.get_or("requests", 2000);
    let baseline_requests: usize = args.get_or("baseline-requests", 200);
    let k: usize = args.get_or("k", hc.k);
    let epochs: usize = args.get_or("epochs", 2);
    let workers: Vec<usize> = args
        .get("workers")
        .unwrap_or("1,2,4")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .expect("--workers wants comma-separated ints")
        })
        .collect();

    let data = generate(&DatasetProfile::Electronics.config(hc.scale, hc.data_seed))
        .unwrap_or_else(|e| panic!("dataset generation: {e}"));
    println!(
        "Electronics @ {:?}: {} users, {} items",
        hc.scale,
        data.num_users(),
        data.num_items()
    );

    let mut model = SceneRec::new(
        SceneRecConfig::default()
            .with_dim(hc.dim)
            .with_seed(hc.model_seed),
        &data,
    );
    let mut tc = hc.train_config();
    tc.epochs = epochs;
    tc.eval_every = 0;
    tc.patience = 0;
    let t = Instant::now();
    train(&mut model, &data, &tc);
    println!(
        "trained {epochs} epoch(s) in {:.1}s",
        t.elapsed().as_secs_f64()
    );

    // Freeze (timed: it is the engine's startup cost).
    let t = Instant::now();
    let engine = ShardedEngine::from_model_quantized(
        &model,
        &data,
        Precision::F32,
        ShardedConfig::with_shards(1),
    )
    .unwrap_or_else(|e| panic!("freeze: {e}"));
    let freeze_ns = t.elapsed().as_nanos() as u64;
    println!("froze model in {:.1}ms", freeze_ns as f64 / 1e6);
    let clear_cache = || engine.invalidate_shard(0).expect("the engine has shard 0");

    // Parity guard: the two paths must agree before we compare speed.
    for user in [0u32, 1, data.num_users() / 2, data.num_users() - 1] {
        let served = engine
            .top_k(user, k)
            .unwrap_or_else(|e| panic!("top_k: {e}"));
        let tape = top_k_unseen(&model, &data, UserId(user), k);
        assert_eq!(served.len(), tape.len(), "user {user}: length mismatch");
        for (a, b) in served.iter().zip(&tape) {
            assert_eq!(a.item, b.item, "user {user}: item mismatch");
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "user {user}: score bits mismatch"
            );
        }
    }
    clear_cache();
    println!("parity guard passed (engine == tape on sampled users)\n");

    // One seeded request log drives everything.
    let mut rng = StdRng::seed_from_u64(hc.data_seed);
    let requests: Vec<Request> = (0..num_requests)
        .map(|_| Request {
            user: rng.gen_range(0..data.num_users()),
            k,
        })
        .collect();

    // Baseline: the training-side per-request path on a capped prefix
    // (the tape rebuilds the full graph per request; at full log length
    // the baseline alone would dominate the run).
    let baseline_n = baseline_requests.clamp(1, requests.len());
    let mut sink = 0usize;
    let t = Instant::now();
    for req in &requests[..baseline_n] {
        sink += top_k_unseen(&model, &data, UserId(req.user), req.k).len();
    }
    let baseline = Throughput::from_run(baseline_n, t.elapsed().as_nanos() as u64);
    assert!(sink > 0);
    println!(
        "baseline (tape, per-request): {:>10.0} req/s  ({:.2} ms/req over {} reqs)",
        baseline.requests_per_sec,
        baseline.per_request_ns / 1e6,
        baseline_n
    );

    let mut runs = Vec::new();
    for &w in &workers {
        let cfg = ShardReplayConfig {
            workers: w,
            max_batch: 32,
            ..ShardReplayConfig::default()
        };
        // Cold: empty cache, fresh metrics so the histogram covers
        // exactly this run.
        clear_cache();
        reset_metrics();
        let t = Instant::now();
        let responses = replay_sharded(&engine, &requests, &cfg);
        let cold = Throughput::from_run(responses.len(), t.elapsed().as_nanos() as u64);
        let latency = metrics::histogram("serve/latency_ns", &latency_edges());
        let qs = latency.quantiles(&[0.5, 0.99, 0.999]);
        let (p50, p99, p999) = (qs[0], qs[1], qs[2]);

        // Warm: same log again with the cache populated.
        let t = Instant::now();
        let responses = replay_sharded(&engine, &requests, &cfg);
        let warm = Throughput::from_run(responses.len(), t.elapsed().as_nanos() as u64);

        let speedup = cold.requests_per_sec / baseline.requests_per_sec;
        println!(
            "engine  workers={w}: cold {:>10.0} req/s ({speedup:>7.1}x)  warm {:>10.0} req/s  p50 {:.1}µs p99 {:.1}µs",
            cold.requests_per_sec,
            warm.requests_per_sec,
            p50 / 1e3,
            p99 / 1e3,
        );
        runs.push(WorkerRun {
            workers: w,
            cold,
            warm,
            cold_latency_p50_ns: p50,
            cold_latency_p99_ns: p99,
            cold_latency_p999_ns: p999,
            speedup_vs_baseline: speedup,
        });
    }

    // Optional causal-trace export + cross-worker structure check.
    if let Some(trace_out) = args.get("trace-out") {
        let arrivals = TimedRequest::burst(&requests);
        let traced = ReplayOptions {
            trace: true,
            ..ReplayOptions::default()
        };
        let traced_replay = |workers: usize| {
            let config = ShardReplayConfig {
                workers,
                max_batch: 32,
                ..ShardReplayConfig::default()
            };
            replay_sharded_with(&engine, &arrivals, &config, &traced).traces
        };
        clear_cache();
        let traces = traced_replay(1);
        let reference = structure_digest(&traces);
        if let Some(dir) = std::path::Path::new(trace_out).parent() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
        }
        std::fs::write(trace_out, chrome_trace_json(&traces))
            .unwrap_or_else(|e| panic!("write {trace_out}: {e}"));
        println!(
            "traced {} requests -> {trace_out} (structure digest {reference:016x}); \
             open in chrome://tracing or ui.perfetto.dev",
            traces.len()
        );
        // Warm traced replays across every worker count must agree on
        // span structure — the interleaving-independence contract.
        let warm_reference = structure_digest(&traced_replay(1));
        for &w in &workers {
            let digest = structure_digest(&traced_replay(w));
            assert_eq!(
                digest, warm_reference,
                "span structure diverged at workers={w}"
            );
        }
        println!(
            "span structure digest {warm_reference:016x} identical across workers {workers:?}"
        );
    }

    let best = runs
        .iter()
        .map(|r| r.speedup_vs_baseline)
        .fold(0.0f64, f64::max);
    println!("\nbest cold speedup vs per-request tape: {best:.1}x");

    // --- Quantized precision sweep -----------------------------------
    // BPR-MF's dot-bias head is the shape the quantized kernels serve
    // natively: f16 item rows through the widening dot, int8 rows
    // through the integer dot. (SceneRec's MLP head dequantizes
    // row-by-row instead, so it would measure expansion, not kernels.)
    // The default dim is deliberately large: below ~256 the per-request
    // fixed costs (batching, masking, top-K selection) dominate and
    // every precision converges to the same req/s.
    let precision_dim: usize = args.get_or("precision-dim", 512);
    let overlap_k: usize = args.get_or("overlap-k", 20);
    let mut bpr = BprMf::new(&data, precision_dim, hc.model_seed);
    let t = Instant::now();
    train(&mut bpr, &data, &tc);
    println!(
        "\nprecision sweep: BPR-MF dim {precision_dim} trained in {:.1}s (backend {})",
        t.elapsed().as_secs_f64(),
        backend_name()
    );

    let sweep_cfg = ShardReplayConfig {
        workers: 1,
        max_batch: 32,
        ..ShardReplayConfig::default()
    };
    let overlap_users: u32 = data.num_users().min(200);
    let mut f32_top: Vec<BTreeSet<ItemId>> = Vec::new();
    let mut f32_warm_rps = 0.0f64;
    let mut precisions = Vec::new();
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let t = Instant::now();
        let engine = ShardedEngine::from_model_quantized(
            &bpr,
            &data,
            precision,
            ShardedConfig {
                shards: 1,
                engine: EngineConfig {
                    cache_capacity: 0,
                    ..EngineConfig::default()
                },
            },
        )
        .unwrap_or_else(|e| panic!("freeze {}: {e}", precision.name()));
        let p_freeze_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let responses = replay_sharded(&engine, &requests, &sweep_cfg);
        let cold = Throughput::from_run(responses.len(), t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let responses = replay_sharded(&engine, &requests, &sweep_cfg);
        let warm = Throughput::from_run(responses.len(), t.elapsed().as_nanos() as u64);
        if precision == Precision::F32 {
            f32_warm_rps = warm.requests_per_sec;
        }

        let mut kept = 0usize;
        let mut total = 0usize;
        for user in 0..overlap_users {
            let top = engine
                .top_k(user, overlap_k)
                .unwrap_or_else(|e| panic!("top_k {}: {e}", precision.name()));
            if precision == Precision::F32 {
                f32_top.push(top.iter().map(|r| r.item).collect());
            } else {
                let want = &f32_top[user as usize];
                kept += top.iter().filter(|r| want.contains(&r.item)).count();
                total += want.len();
            }
        }
        let overlap = if total == 0 {
            1.0
        } else {
            kept as f64 / total as f64
        };
        let speedup = warm.requests_per_sec / f32_warm_rps.max(f64::MIN_POSITIVE);
        println!(
            "precision {:>5}: cold {:>9.0} req/s  warm {:>9.0} req/s ({speedup:>5.2}x f32)  overlap@{overlap_k} {overlap:.4}",
            precision.name(),
            cold.requests_per_sec,
            warm.requests_per_sec,
        );
        precisions.push(PrecisionRun {
            precision: precision.name().to_string(),
            freeze_ns: p_freeze_ns,
            cold,
            warm,
            warm_speedup_vs_f32: speedup,
            top20_overlap_vs_f32: overlap,
        });
    }
    let int8_speedup = precisions
        .iter()
        .find(|p| p.precision == Precision::Int8.name())
        .map(|p| p.warm_speedup_vs_f32)
        .unwrap_or(0.0);

    let results = ServeResults {
        baseline,
        freeze_ns,
        runs,
        best_speedup_vs_baseline: best,
        precisions,
        int8_speedup_vs_f32_warm: int8_speedup,
    };
    let out = args.get("out").unwrap_or("results/BENCH_serve.json");
    let manifest = RunManifest::new("serve")
        .with_config(&ServeConfig {
            requests: num_requests,
            baseline_requests: baseline_n,
            k,
            workers,
            epochs,
            num_users: data.num_users(),
            num_items: data.num_items(),
            precision_dim,
            overlap_k,
        })
        .with_kernel_backend(backend_name())
        .with_seed(hc.data_seed)
        .with_scale(format!("{:?}", hc.scale).to_ascii_lowercase())
        .with_results(&results)
        .capture_telemetry();
    manifest
        .write_json(out)
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("[serve] wrote {out}");
}
