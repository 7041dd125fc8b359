//! Concurrency determinism: replaying the same request log through the
//! scheduler at different worker counts must produce **byte-identical**
//! responses. The engine has four shards, so every worker count up to
//! four has work, and which worker serves which shard depends on the
//! worker count — but the engine is pure, the cache returns the same
//! bits a recompute would, and the scheduler reassembles by request
//! index, so none of that can show up in the output.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenerec_baselines::BprMf;
use scenerec_core::trainer::{train, TrainConfig};
use scenerec_core::Precision;
use scenerec_data::{generate, GeneratorConfig};
use scenerec_serve::{
    replay_sharded, responses_to_json, Request, ShardReplayConfig, ShardedConfig, ShardedEngine,
};

/// A trained BPR-MF engine over a tiny deterministic dataset.
fn trained_engine() -> (ShardedEngine, u32) {
    let data = generate(&GeneratorConfig::tiny(2021)).expect("dataset generation");
    let mut model = BprMf::new(&data, 16, 7);
    let cfg = TrainConfig {
        epochs: 2,
        eval_every: 0,
        patience: 0,
        threads: 2,
        ..TrainConfig::default()
    };
    train(&mut model, &data, &cfg);
    let num_users = data.num_users();
    let engine = ShardedEngine::from_model_quantized(
        &model,
        &data,
        Precision::F32,
        ShardedConfig::with_shards(4),
    )
    .expect("freeze BPR-MF for serving");
    (engine, num_users)
}

fn clear_caches(engine: &ShardedEngine) {
    for s in 0..engine.num_shards() {
        engine.invalidate_shard(s).expect("shard index in range");
    }
}

/// A seeded request log mixing repeat users (cache hits), varying k, and
/// a sprinkle of invalid user ids (error responses must be deterministic
/// too).
fn request_log(num_users: u32, n: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let user = if rng.gen_range(0..20) == 0 {
                num_users + rng.gen_range(0..5)
            } else {
                rng.gen_range(0..num_users)
            };
            Request {
                user,
                k: rng.gen_range(0..12),
            }
        })
        .collect()
}

#[test]
fn worker_count_is_unobservable_in_response_bytes() {
    let (engine, num_users) = trained_engine();
    let requests = request_log(num_users, 300, 42);

    let reference = responses_to_json(&replay_sharded(
        &engine,
        &requests,
        &ShardReplayConfig {
            workers: 1,
            max_batch: 16,
            ..ShardReplayConfig::default()
        },
    ));
    assert!(!reference.is_empty());

    for workers in [2usize, 4] {
        // Fresh cache state per run so hit patterns differ across worker
        // counts — the bytes still must not.
        clear_caches(&engine);
        let got = responses_to_json(&replay_sharded(
            &engine,
            &requests,
            &ShardReplayConfig {
                workers,
                max_batch: 16,
                ..ShardReplayConfig::default()
            },
        ));
        assert_eq!(
            reference.as_bytes(),
            got.as_bytes(),
            "workers={workers} produced different response bytes"
        );
    }
}

#[test]
fn batch_size_is_unobservable_in_response_bytes() {
    let (engine, num_users) = trained_engine();
    let requests = request_log(num_users, 120, 9);
    let reference = responses_to_json(&replay_sharded(
        &engine,
        &requests,
        &ShardReplayConfig {
            workers: 2,
            max_batch: 1,
            ..ShardReplayConfig::default()
        },
    ));
    for max_batch in [3usize, 64, 1000] {
        clear_caches(&engine);
        let got = responses_to_json(&replay_sharded(
            &engine,
            &requests,
            &ShardReplayConfig {
                workers: 2,
                max_batch,
                ..ShardReplayConfig::default()
            },
        ));
        assert_eq!(reference, got, "max_batch={max_batch} diverged");
    }
}

#[test]
fn warm_cache_replay_matches_cold_replay() {
    let (engine, num_users) = trained_engine();
    let requests = request_log(num_users, 80, 3);
    let cold = responses_to_json(&replay_sharded(
        &engine,
        &requests,
        &ShardReplayConfig::default(),
    ));
    // Second pass is served (mostly) from cache; bytes must not change.
    let warm = responses_to_json(&replay_sharded(
        &engine,
        &requests,
        &ShardReplayConfig::default(),
    ));
    assert_eq!(cold, warm);
}
