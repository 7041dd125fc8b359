//! Admission-controlled serving under heavy-tailed overload: the
//! bounded two-lane admission gate in front of a one-shard engine,
//! replaying seeded Pareto/Zipf traffic at offered loads of 1×, 2×, and
//! 10× the modeled service capacity.
//!
//! ```text
//! cargo run -p scenerec-bench --bin overload --release -- \
//!     [--users 20000] [--items 8000] [--dim 32] [--seed 97] \
//!     [--requests 6000] [--k 50] [--loads 1,2,10] [--workers 1,2,4] \
//!     [--fast-capacity 128] [--cold-capacity 64] \
//!     [--fast-weight 4] [--cold-weight 1] \
//!     [--drain-ticks 25] [--drain-per-round 1] \
//!     [--p99-ratio-limit 3.0] [--out results/BENCH_overload.json]
//! ```
//!
//! The 1× point is *critical* load: the mean inter-arrival gap equals
//! the modeled service interval (`drain-ticks / drain-per-round`), so
//! with infinite-variance Pareto gaps the queues already brush their
//! capacity in bursts. Higher loads compress the same request sequence
//! in time — the arrival order, users, and k never change, only the
//! gaps — so every difference between sweep points is the admission
//! gate's doing.
//!
//! What the manifest records per load:
//!
//! * **Queue-delay quantiles** (`p50/p99/p999_delay_ticks`): logical
//!   ticks spent queued, straight from the admission plan —
//!   deterministic, identical at any worker count, and the quantity
//!   the graceful-degradation acceptance is asserted on. Bounded
//!   queues bound delay: shedding converts latency collapse into typed
//!   refusals, which is why p99 at 10× stays within
//!   `--p99-ratio-limit` (default 3×) of the 1× p99 instead of
//!   growing ~10×.
//! * **Shed accounting**: offered = admitted + shed, shed rate, and
//!   per-lane splits. Every shed request is answered with a typed
//!   overload response — the binary asserts zero silent drops.
//! * **Per-lane goodput** (`goodput_per_sec`): non-error responses per
//!   wall-clock second, fast (cache-hit) and cold lanes separately.
//! * **Worker-count parity**: before timing, responses at workers
//!   {1,2,4} are asserted byte-identical (shedding happens in the pure
//!   admission plan, before any worker exists).

use scenerec_bench::traffic::{self, TrafficConfig};
use scenerec_core::FrozenModel;
use scenerec_obs::RunManifest;
use scenerec_serve::{
    replay_sharded_with, responses_to_json, AdmissionConfig, AdmissionPlan, Lane, ReplayOptions,
    Response, ShardReplayConfig, ShardedConfig, ShardedEngine, Verdict,
};
use scenerec_tensor::backend_name;
use serde::{Deserialize, Serialize};
use std::time::Instant;

use scenerec_bench::cli::Args;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct OverloadBenchConfig {
    num_users: usize,
    num_items: usize,
    dim: usize,
    seed: u64,
    requests: usize,
    k: usize,
    loads: Vec<f64>,
    workers: Vec<usize>,
    max_batch: usize,
    fast_capacity: usize,
    cold_capacity: usize,
    fast_weight: u32,
    cold_weight: u32,
    drain_every_ticks: u64,
    drain_per_round: u32,
    mean_gap_ticks_at_1x: f64,
    zipf_exponent: f64,
    pareto_alpha: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct LaneStats {
    admitted: usize,
    shed: usize,
    ok: usize,
    goodput_per_sec: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct LoadRun {
    load: f64,
    offered: usize,
    admitted: usize,
    shed: usize,
    shed_rate: f64,
    p50_delay_ticks: f64,
    p99_delay_ticks: f64,
    p999_delay_ticks: f64,
    fast: LaneStats,
    cold: LaneStats,
    total_ns: u64,
    admitted_per_request_ns: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct OverloadResults {
    runs: Vec<LoadRun>,
    /// Headline: p99 queue delay at the highest load over the 1× p99 —
    /// the graceful-degradation acceptance ratio.
    p99_ratio_max_vs_1x: f64,
}

/// Quantile of a sorted sample by nearest-rank; deterministic.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Per-lane admitted/shed/ok accounting from one run.
fn lane_stats(plan: &AdmissionPlan, responses: &[Response], lane: Lane, secs: f64) -> LaneStats {
    let ok = plan
        .verdicts
        .iter()
        .zip(responses)
        .filter(|(v, r)| {
            matches!(v, Verdict::Admit { lane: l, .. } if *l == lane) && r.error.is_none()
        })
        .count();
    LaneStats {
        admitted: plan.admitted_by_lane[lane.index()],
        shed: plan.shed_by_lane[lane.index()],
        ok,
        goodput_per_sec: ok as f64 / secs.max(1e-9),
    }
}

fn build_engine(num_users: usize, num_items: usize, dim: usize, seed: u64) -> ShardedEngine {
    let frozen = FrozenModel::synthetic("overload", num_users, num_items, dim, seed)
        .unwrap_or_else(|e| panic!("synthesis: {e}"));
    ShardedEngine::new_unseen(frozen, ShardedConfig::with_shards(1))
        .unwrap_or_else(|e| panic!("engine: {e}"))
}

fn main() {
    let args = Args::from_env();
    let num_users: usize = args.get_or("users", 20_000);
    let num_items: usize = args.get_or("items", 8_000);
    let dim: usize = args.get_or("dim", 32);
    let seed: u64 = args.get_or("seed", 97);
    let requests: usize = args.get_or("requests", 6_000);
    let k: usize = args.get_or("k", 50);
    let fast_capacity: usize = args.get_or("fast-capacity", 128);
    let cold_capacity: usize = args.get_or("cold-capacity", 64);
    let fast_weight: u32 = args.get_or("fast-weight", 4);
    let cold_weight: u32 = args.get_or("cold-weight", 1);
    let drain_every_ticks: u64 = args.get_or("drain-ticks", 25);
    let drain_per_round: u32 = args.get_or("drain-per-round", 1);
    let zipf_exponent: f64 = args.get_or("zipf", 1.1);
    let pareto_alpha: f64 = args.get_or("alpha", 1.3);
    let p99_ratio_limit: f64 = args.get_or("p99-ratio-limit", 3.0);
    let max_batch = 32usize;
    let parse_loads = |key: &str, default: &str| -> Vec<f64> {
        args.get(key)
            .unwrap_or(default)
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("--{key} wants comma-separated numbers"))
            })
            .collect()
    };
    let loads = parse_loads("loads", "1,2,10");
    let worker_counts: Vec<usize> = args
        .get("workers")
        .unwrap_or("1,2,4")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("--workers wants comma-separated ints"))
        })
        .collect();

    // Critical load at 1×: offered rate == modeled service rate.
    let mean_gap_ticks_at_1x = drain_every_ticks.max(1) as f64 / drain_per_round.max(1) as f64;
    let base_traffic = TrafficConfig {
        seed,
        requests,
        num_users: num_users as u32,
        k,
        zipf_exponent,
        pareto_alpha,
        mean_gap_ticks: mean_gap_ticks_at_1x,
    };
    let admission = AdmissionConfig {
        fast_capacity,
        cold_capacity,
        fast_weight,
        cold_weight,
        drain_every_ticks,
        drain_per_round,
    };

    println!(
        "overload: {num_users} users x {num_items} items @ dim {dim}, {requests} arrivals, \
         capacities fast={fast_capacity}/cold={cold_capacity}, weights {fast_weight}:{cold_weight}, \
         service 1/{mean_gap_ticks_at_1x} per tick (backend {})",
        backend_name()
    );

    let mut runs: Vec<LoadRun> = Vec::new();
    for &load in &loads {
        let trace = traffic::generate(&base_traffic.at_load(load));

        // Byte parity across worker counts, on a fresh engine each so
        // cache state is identical; shedding is planned before any
        // worker exists, so bytes cannot move.
        let options = ReplayOptions {
            admission: Some(admission.clone()),
            ..ReplayOptions::default()
        };
        let mut reference: Option<String> = None;
        for &workers in &worker_counts {
            let engine = build_engine(num_users, num_items, dim, seed);
            let cfg = ShardReplayConfig {
                workers,
                max_batch,
                ..ShardReplayConfig::default()
            };
            let rendered =
                responses_to_json(&replay_sharded_with(&engine, &trace, &cfg, &options).responses);
            match &reference {
                None => reference = Some(rendered),
                Some(want) => assert_eq!(
                    want, &rendered,
                    "load {load}x: workers={workers} changed bytes"
                ),
            }
        }

        // The timed run: one worker, fresh engine.
        let engine = build_engine(num_users, num_items, dim, seed);
        let cfg = ShardReplayConfig {
            workers: 1,
            max_batch,
            ..ShardReplayConfig::default()
        };
        let t = Instant::now();
        let replayed = replay_sharded_with(&engine, &trace, &cfg, &options);
        let total_ns = t.elapsed().as_nanos() as u64;
        let (responses, plan) = (
            replayed.responses,
            replayed.plan.expect("admission was requested"),
        );
        let secs = total_ns as f64 / 1e9;

        // Zero silent drops: every arrival answered exactly once, every
        // planned shed typed as an overload response.
        assert_eq!(responses.len(), trace.len(), "a request went unanswered");
        assert_eq!(plan.admitted() + plan.shed(), plan.offered());
        for (v, r) in plan.verdicts.iter().zip(&responses) {
            match v {
                Verdict::Shed(_) => assert!(
                    r.overload.is_some(),
                    "shed request answered without typed overload"
                ),
                Verdict::Admit { .. } => {
                    assert!(r.overload.is_none() && r.error.is_none())
                }
            }
        }

        let mut delays = plan.queue_delays();
        delays.sort_unstable();
        let run = LoadRun {
            load,
            offered: plan.offered(),
            admitted: plan.admitted(),
            shed: plan.shed(),
            shed_rate: plan.shed() as f64 / plan.offered().max(1) as f64,
            p50_delay_ticks: quantile(&delays, 0.50),
            p99_delay_ticks: quantile(&delays, 0.99),
            p999_delay_ticks: quantile(&delays, 0.999),
            fast: lane_stats(&plan, &responses, Lane::Fast, secs),
            cold: lane_stats(&plan, &responses, Lane::Cold, secs),
            total_ns,
            admitted_per_request_ns: total_ns as f64 / plan.admitted().max(1) as f64,
        };
        println!(
            "load {load:>4}x: offered {:>6} admitted {:>6} shed {:>6} ({:>5.1}%)  \
             delay p50/p99/p999 = {:>5.0}/{:>5.0}/{:>5.0} ticks  \
             goodput fast {:>8.1}/s cold {:>8.1}/s",
            run.offered,
            run.admitted,
            run.shed,
            run.shed_rate * 100.0,
            run.p50_delay_ticks,
            run.p99_delay_ticks,
            run.p999_delay_ticks,
            run.fast.goodput_per_sec,
            run.cold.goodput_per_sec,
        );
        runs.push(run);
    }

    // Graceful degradation headline: p99 queue delay at the heaviest
    // load vs the 1× baseline. Bounded queues bound delay, so this
    // ratio stays small while shed_rate absorbs the overload.
    let p99_at = |l: f64| {
        runs.iter()
            .find(|r| (r.load - l).abs() < 1e-9)
            .map(|r| r.p99_delay_ticks)
            .unwrap_or(0.0)
    };
    let max_load = loads.iter().cloned().fold(1.0f64, f64::max);
    let base_p99 = p99_at(1.0).max(1.0);
    let p99_ratio = p99_at(max_load) / base_p99;
    println!("p99 delay ratio {max_load}x vs 1x: {p99_ratio:.2}");
    if p99_ratio_limit > 0.0 && loads.contains(&1.0) && max_load > 1.0 {
        assert!(
            p99_ratio <= p99_ratio_limit,
            "p99 queue delay at {max_load}x is {p99_ratio:.2}x the 1x p99 \
             (limit {p99_ratio_limit}): load shedding failed to bound latency"
        );
    }

    let results = OverloadResults {
        runs,
        p99_ratio_max_vs_1x: p99_ratio,
    };
    let out = args.get("out").unwrap_or("results/BENCH_overload.json");
    let manifest = RunManifest::new("overload")
        .with_config(&OverloadBenchConfig {
            num_users,
            num_items,
            dim,
            seed,
            requests,
            k,
            loads,
            workers: worker_counts,
            max_batch,
            fast_capacity,
            cold_capacity,
            fast_weight,
            cold_weight,
            drain_every_ticks,
            drain_per_round,
            mean_gap_ticks_at_1x,
            zipf_exponent,
            pareto_alpha,
        })
        .with_kernel_backend(backend_name())
        .with_seed(seed)
        .with_results(&results)
        .capture_telemetry();
    manifest
        .write_json(out)
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("[overload] wrote {out}");
}
