//! `serve_catalog`: offline batch scoring, precomputing the top 50 for
//! users drawn uniformly from a 200 000-user, 50 000-item catalog.
//!
//! A synthetic dot-bias frozen model (d = 32) is split into two item
//! shards and replayed through `replay_sharded` on two workers. Uniform
//! users put the reuse distance far beyond the result caches, so scoring,
//! candidate building, top-K selection, the merge and the scheduler do all
//! the work and the cache does none.

use crate::stats::median;
use crate::{repeat_setup, span_ns, Outcome, RunConfig, Tracer, THREADS};
use scenerec_core::{FrozenModel, Recommendation};
use scenerec_serve::{
    merge_top_k, replay_sharded, responses_to_json, select_top_k, Request, Response,
    ShardReplayConfig, ShardedConfig, ShardedEngine,
};
use scenerec_tensor::score::score_bt;
use scenerec_tensor::Matrix;
use std::time::Instant;

const USERS: usize = 200_000;
const ITEMS: usize = 50_000;
const DIM: usize = 32;
const SHARDS: usize = 2;
const K: usize = 50;
/// Requests per `replay_sharded` call; one call is one latency sample.
const CHUNK: usize = 128;
/// Requests served per second of `--seconds` (about 1.8k/s on two cores).
const REQUESTS_PER_SECOND: f64 = 1_600.0;
/// Every this many timed responses is re-checked against the reference.
const RECHECK_EVERY: usize = 97;
/// Users in the traced run's direct per-shard probe.
const PROBE_USERS: usize = 256;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` requests for uniformly drawn users.
fn uniform_requests(seed: u64, n: usize) -> Vec<Request> {
    let mut state = seed ^ 0xC0FF_EE00;
    (0..n)
        .map(|_| Request {
            user: (splitmix64(&mut state) % USERS as u64) as u32,
            k: K,
        })
        .collect()
}

fn engine(frozen: FrozenModel, shards: usize, cache_capacity: usize) -> ShardedEngine {
    let mut config = ShardedConfig::with_shards(shards);
    config.engine.cache_capacity = cache_capacity;
    ShardedEngine::new_unseen(frozen, config).expect("a synthetic catalog is consistent")
}

/// What a correct engine answers: a one-shard engine without a cache,
/// queried one request at a time.
fn reference_json(reference: &ShardedEngine, req: &Request) -> String {
    let recs = reference.top_k(req.user, req.k);
    let (recs, error) = match recs {
        Ok(r) => (r, None),
        Err(e) => (Vec::new(), Some(e.to_string())),
    };
    Response {
        user: req.user,
        k: req.k,
        recs,
        error,
        degraded: false,
        partial_shards: Vec::new(),
        overload: None,
    }
    .to_json()
}

fn ok_response(r: &Response) -> bool {
    r.outcome() == "ok" && r.recs.len() == r.k
}

pub fn run(rc: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(rc.trace, 0);
    let (engine, setup_s) = repeat_setup(|| {
        let frozen = tracer.span("core.synthetic", || {
            FrozenModel::synthetic("catalog", USERS, ITEMS, DIM, rc.seed)
                .expect("shape is consistent")
        });
        tracer.span("serve.engine_build", || engine(frozen, SHARDS, 1024))
    });
    out.setup_s = setup_s;
    let frozen =
        FrozenModel::synthetic("catalog", USERS, ITEMS, DIM, rc.seed).expect("shape is consistent");
    let reference = self::engine(frozen.clone(), 1, 0);
    let replay_cfg = ShardReplayConfig {
        workers: THREADS,
        ..ShardReplayConfig::default()
    };

    // Parity before timing: replay bytes equal sequential reference bytes.
    let sample = uniform_requests(rc.seed ^ 0x5A3D, 64);
    let replayed = responses_to_json(&replay_sharded(&engine, &sample, &replay_cfg));
    let expected: String = sample
        .iter()
        .map(|r| reference_json(&reference, r) + "\n")
        .collect();
    out.check(
        "replay_sharded NDJSON equals sequential top_k on a sample",
        replayed == expected,
    );

    let total = ((rc.seconds * REQUESTS_PER_SECOND) as usize).div_ceil(CHUNK) * CHUNK;
    let requests = uniform_requests(rc.seed, total);
    let mut recheck = Vec::new();
    let start = Instant::now();
    for (c, chunk) in requests.chunks(CHUNK).enumerate() {
        let t = Instant::now();
        let responses = tracer.span("serve.replay_sharded", || {
            replay_sharded(&engine, chunk, &replay_cfg)
        });
        out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += chunk.len() as u64;
        out.failed += responses.iter().filter(|r| !ok_response(r)).count() as u64;
        out.failed += chunk.len().saturating_sub(responses.len()) as u64;
        for (i, r) in responses.into_iter().enumerate() {
            if (c * CHUNK + i).is_multiple_of(RECHECK_EVERY) {
                recheck.push(r);
            }
        }
    }
    let batch_rps = total as f64 / start.elapsed().as_secs_f64();
    // Responses per second of the median call: a stall of the machine
    // slows a few calls, not the figure.
    out.throughput_per_s = CHUNK as f64 * 1e3 / median(&out.latencies_ms);
    let rechecked = recheck.iter().all(|r| {
        r.to_json()
            == reference_json(
                &reference,
                &Request {
                    user: r.user,
                    k: r.k,
                },
            )
    });
    out.check(
        "timed responses equal the reference on every 97th request",
        rechecked,
    );
    let (mut hits, mut lookups) = (0u64, 0u64);
    for s in 0..engine.num_shards() {
        let (h, m) = engine.shard_cache_stats(s).expect("shard index in range");
        hits += h;
        lookups += h + m;
    }
    let hit_share = hits as f64 / lookups.max(1) as f64;
    out.notes.push(format!(
        "serve_catalog: {total} requests in {} calls of {CHUNK}, batch_rps {batch_rps:.1} over the whole replay, \
         {:.1} in the median call, cache hit share {hit_share:.5}",
        total / CHUNK,
        out.throughput_per_s
    ));

    if rc.trace {
        let candidates = probe(&engine, &frozen, rc.seed, &mut tracer);
        let bench = tracer.finish().expect("tracer is on");
        let p50_us = |name: &str| median(&span_ns([&bench], name)) / 1e3;
        let shard_us = [
            p50_us("serve.partial_top_k.0"),
            p50_us("serve.partial_top_k.1"),
        ];
        let merge_us = p50_us("serve.merge_top_k");
        let score_ns = median(&span_ns([&bench], "tensor.score_bt"));
        let n = (ITEMS / SHARDS) as f64;
        let flops = 2.0 * n * DIM as f64;
        // Item rows, bias and the output row; the user row is negligible.
        let bytes = (n * DIM as f64 + 2.0 * n) * 4.0;
        // Engine time per request from the direct probe, against the
        // replay's wall time on every worker: the rest is scheduling.
        let engine_ns = (shard_us[0] + shard_us[1] + merge_us) * 1e3 * total as f64;
        let replay_ns: f64 = span_ns([&bench], "serve.replay_sharded").iter().sum();
        out.layers = vec![
            ("serve.cache_hit_share", hit_share),
            ("serve.shard0.partial_us_p50", shard_us[0]),
            ("serve.shard1.partial_us_p50", shard_us[1]),
            ("serve.shard0.candidates", candidates[0]),
            ("serve.shard1.candidates", candidates[1]),
            ("tensor.score_bt_gflops", flops / score_ns),
            ("tensor.score_bt_mb", bytes / 1e6),
            ("serve.topk_us", p50_us("serve.select_top_k")),
            ("serve.merge_us", merge_us),
            (
                "serve.scheduler_share",
                1.0 - engine_ns / (replay_ns * THREADS as f64),
            ),
            ("bench.layer_coverage", 1.0),
        ];
        out.traces = vec![bench];
    }
    out
}

/// Direct calls into each layer the replay uses, one span each: per-shard
/// `partial_top_k` for fresh users, `merge_top_k` of the two partials,
/// and `score_bt` plus `select_top_k` over shard 0's matrix. Returns the
/// mean candidates scored per shard on a miss.
fn probe(
    engine: &ShardedEngine,
    frozen: &FrozenModel,
    seed: u64,
    tracer: &mut Tracer,
) -> [f64; SHARDS] {
    let users = uniform_requests(seed ^ 0x9_4AB3, PROBE_USERS);
    let mut candidates = [(0.0, 0.0); SHARDS];
    for req in &users {
        let mut partials: Vec<Vec<Recommendation>> = Vec::new();
        for (s, (sum, misses)) in candidates.iter_mut().enumerate() {
            let name = ["serve.partial_top_k.0", "serve.partial_top_k.1"][s];
            let p = tracer.span(name, || engine.partial_top_k(s, req.user, req.k));
            let p = p.expect("user in range");
            if !p.hit {
                *sum += p.candidates as f64;
                *misses += 1.0;
            }
            partials.push(p.recs);
        }
        std::hint::black_box(tracer.span("serve.merge_top_k", || merge_top_k(&partials, K)));
    }

    let range = engine.shard_map().range(0).expect("shard 0 exists");
    let (items, head) = frozen
        .slice_items(range.start as usize, range.end as usize)
        .expect("shard range is in the catalog");
    let items = items.to_f32();
    let bias = match head {
        scenerec_core::FrozenHead::DotBias { bias } => bias,
        _ => Vec::new(),
    };
    let user_rows = frozen.users.to_f32();
    for req in users.iter().take(64) {
        let a = Matrix::from_vec(1, DIM, user_rows.row(req.user as usize).to_vec())
            .expect("one row of DIM");
        let scores = tracer.span("tensor.score_bt", || score_bt(&a, &items, Some(&bias), 1));
        let top = tracer.span("serve.select_top_k", || {
            select_top_k(
                scores
                    .row(0)
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| (range.start + i as u32, s)),
                K,
            )
        });
        std::hint::black_box(top);
    }
    candidates.map(|(sum, misses)| sum / f64::max(misses, 1.0))
}
