//! Sharded-serving throughput report: the `paper_scale_plus` frozen
//! catalog replayed through [`scenerec_serve::ShardedEngine`] at several
//! shard counts, at every storage precision.
//!
//! ```text
//! cargo run -p scenerec-bench --bin shard --release -- \
//!     [--users 1000000] [--items 1000000] [--dim 32] [--seed 97] \
//!     [--requests 256] [--k 100] [--shards 1,2,4,8] [--workers 1,2,4] \
//!     [--min-speedup 0.0] [--out results/BENCH_shard.json]
//! ```
//!
//! Scoring a catalog this size is bandwidth-bound: one request streams
//! the whole item matrix (128 MB at f32) through the cache hierarchy.
//! The sharded scheduler walks each micro-batch shard-major, so one
//! shard's slice stays LLC-resident across the whole batch — the
//! `speedup_4v1_cold` this manifest reports is that blocking effect,
//! measured on one core. The 1-shard baseline is the same
//! `ShardedEngine` machinery at `shards=1`, so the comparison isolates
//! partitioning from scheduler overhead.
//!
//! Before timing, the binary asserts that every shard count's response
//! bytes equal the 1-shard rendering (per precision), and that worker
//! counts {1,2,4} agree byte-for-byte at 4 shards — the exact-merge and
//! routing-determinism contracts. `--min-speedup X` turns the headline
//! f32 speedup into a hard assertion (used when regenerating the
//! committed baseline; CI gates drift with `bench_diff` instead).

use scenerec_bench::cli::Args;
use scenerec_core::{FrozenModel, Precision};
use scenerec_data::FrozenSynthesisSpec;
use scenerec_obs::RunManifest;
use scenerec_serve::{
    replay_sharded, responses_to_json, Request, ShardReplayConfig, ShardedConfig, ShardedEngine,
};
use scenerec_tensor::backend_name;
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardBenchConfig {
    num_users: usize,
    num_items: usize,
    dim: usize,
    seed: u64,
    requests: usize,
    k: usize,
    shards: Vec<usize>,
    workers: Vec<usize>,
    max_batch: usize,
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

/// One (precision, shard count) sweep point. `cold` replays against
/// empty per-shard caches (pure scoring bandwidth); `warm` replays the
/// same log again (per-shard cache hits).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardRun {
    shards: usize,
    build_ns: u64,
    cold: Throughput,
    warm: Throughput,
    cold_speedup_vs_1shard: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct PrecisionSweep {
    precision: String,
    runs: Vec<ShardRun>,
    speedup_4v1_cold: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct WorkerRun {
    workers: usize,
    cold: Throughput,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardResults {
    precisions: Vec<PrecisionSweep>,
    /// Headline: f32 cold throughput at 4 shards over 1 shard.
    speedup_4v1_cold: f64,
    /// Worker sweep at 4 shards, f32 — shard-pinned routing keeps
    /// bytes identical; on one core more workers only add contention.
    worker_runs: Vec<WorkerRun>,
}

fn speedup_4v1(runs: &[ShardRun]) -> f64 {
    let rps_at = |n: usize| {
        runs.iter()
            .find(|r| r.shards == n)
            .map(|r| r.cold.requests_per_sec)
            .unwrap_or(0.0)
    };
    let one = rps_at(1);
    if one <= 0.0 {
        0.0
    } else {
        rps_at(4) / one
    }
}

fn main() {
    let args = Args::from_env();
    let paper = FrozenSynthesisSpec::paper_scale_plus(97);
    let num_users: usize = args.get_or("users", paper.num_users);
    let num_items: usize = args.get_or("items", paper.num_items);
    let dim: usize = args.get_or("dim", paper.dim);
    let seed: u64 = args.get_or("seed", paper.seed);
    let num_requests: usize = args.get_or("requests", 256);
    let k: usize = args.get_or("k", 100);
    let min_speedup: f64 = args.get_or("min-speedup", 0.0);
    let parse_list = |key: &str, default: &str| -> Vec<usize> {
        args.get(key)
            .unwrap_or(default)
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("--{key} wants comma-separated ints"))
            })
            .collect()
    };
    let shard_counts = parse_list("shards", "1,2,4,8");
    let worker_counts = parse_list("workers", "1,2,4");
    let max_batch = 64usize;

    let t = Instant::now();
    let base = FrozenModel::synthetic("paper_scale_plus", num_users, num_items, dim, seed)
        .unwrap_or_else(|e| panic!("synthesis: {e}"));
    println!(
        "synthesized {num_users} users x {num_items} items @ dim {dim} in {:.1}s \
         ({:.0} MB per f32 entity side; backend {})",
        t.elapsed().as_secs_f64(),
        (num_items * dim * 4) as f64 / 1e6,
        backend_name()
    );

    // Distinct users: every cold request is a true cache miss and every
    // warm request a true hit, at any shard count.
    let requests: Vec<Request> = (0..num_requests)
        .map(|i| Request {
            user: (i % num_users.max(1)) as u32,
            k,
        })
        .collect();

    // One scheduler config for the shard sweep: a single worker, so the
    // only variable is the partitioning (on one core, parallel workers
    // would interleave two shards' scans and thrash the LLC).
    let sweep_cfg = ShardReplayConfig {
        workers: 1,
        max_batch,
        ..ShardReplayConfig::default()
    };

    let mut precisions = Vec::new();
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let model = if precision == Precision::F32 {
            base.clone()
        } else {
            base.quantize(precision)
                .unwrap_or_else(|e| panic!("quantize {}: {e}", precision.name()))
        };
        let mut runs: Vec<ShardRun> = Vec::new();
        let mut reference: Option<String> = None;
        for &shards in &shard_counts {
            let t = Instant::now();
            let engine =
                ShardedEngine::new_unseen(model.clone(), ShardedConfig::with_shards(shards))
                    .unwrap_or_else(|e| panic!("build {} shards: {e}", shards));
            let build_ns = t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let responses = replay_sharded(&engine, &requests, &sweep_cfg);
            let cold = Throughput::from_run(responses.len(), t.elapsed().as_nanos() as u64);
            let rendered = responses_to_json(&responses);
            match &reference {
                None => reference = Some(rendered),
                Some(want) => assert_eq!(
                    want,
                    &rendered,
                    "{} at {shards} shards diverged from 1 shard",
                    precision.name()
                ),
            }

            let t = Instant::now();
            let responses = replay_sharded(&engine, &requests, &sweep_cfg);
            let warm = Throughput::from_run(responses.len(), t.elapsed().as_nanos() as u64);

            let speedup = runs
                .first()
                .map(|first: &ShardRun| cold.requests_per_sec / first.cold.requests_per_sec)
                .unwrap_or(1.0);
            println!(
                "{:>5} shards={shards}: cold {:>8.1} req/s ({speedup:>5.2}x vs 1)  warm {:>9.0} req/s  build {:.0}ms",
                precision.name(),
                cold.requests_per_sec,
                warm.requests_per_sec,
                build_ns as f64 / 1e6,
            );
            runs.push(ShardRun {
                shards,
                build_ns,
                cold,
                warm,
                cold_speedup_vs_1shard: speedup,
            });
        }
        let headline = speedup_4v1(&runs);
        println!("{:>5} speedup 4v1 cold: {headline:.2}x\n", precision.name());
        precisions.push(PrecisionSweep {
            precision: precision.name().to_string(),
            runs,
            speedup_4v1_cold: headline,
        });
    }

    // Worker sweep at 4 shards, f32: bytes must not move.
    let engine = ShardedEngine::new_unseen(base.clone(), ShardedConfig::with_shards(4))
        .unwrap_or_else(|e| panic!("build 4 shards: {e}"));
    let mut worker_runs = Vec::new();
    let mut reference: Option<String> = None;
    for &workers in &worker_counts {
        let cfg = ShardReplayConfig {
            workers,
            max_batch,
            ..ShardReplayConfig::default()
        };
        // Fresh engine state per point would re-pay slicing; instead a
        // cold pass is approximated by bumping every shard's epoch.
        for s in 0..engine.num_shards() {
            engine
                .invalidate_shard(s)
                .unwrap_or_else(|e| panic!("invalidate: {e}"));
        }
        let t = Instant::now();
        let responses = replay_sharded(&engine, &requests, &cfg);
        let cold = Throughput::from_run(responses.len(), t.elapsed().as_nanos() as u64);
        let rendered = responses_to_json(&responses);
        match &reference {
            None => reference = Some(rendered),
            Some(want) => assert_eq!(want, &rendered, "workers={workers} changed bytes"),
        }
        println!(
            "f32 shards=4 workers={workers}: cold {:>8.1} req/s (bytes pinned)",
            cold.requests_per_sec
        );
        worker_runs.push(WorkerRun { workers, cold });
    }

    let headline = precisions
        .iter()
        .find(|p| p.precision == Precision::F32.name())
        .map(|p| p.speedup_4v1_cold)
        .unwrap_or(0.0);
    println!("\nheadline f32 speedup 4v1 cold: {headline:.2}x");
    if min_speedup > 0.0 {
        assert!(
            headline >= min_speedup,
            "f32 4-shard cold speedup {headline:.2}x below required {min_speedup:.2}x"
        );
    }

    let results = ShardResults {
        precisions,
        speedup_4v1_cold: headline,
        worker_runs,
    };
    let out = args.get("out").unwrap_or("results/BENCH_shard.json");
    let manifest = RunManifest::new("shard")
        .with_config(&ShardBenchConfig {
            num_users,
            num_items,
            dim,
            seed,
            requests: num_requests,
            k,
            shards: shard_counts,
            workers: worker_counts,
            max_batch,
        })
        .with_kernel_backend(backend_name())
        .with_seed(seed)
        .with_scale("paper_scale_plus")
        .with_results(&results)
        .capture_telemetry();
    manifest
        .write_json(out)
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("[shard] wrote {out}");
}
