//! Serving parity: the frozen engine must reproduce the training-side
//! scoring path **bit for bit**.
//!
//! `ShardedEngine` replays the model head through dense kernels instead of
//! the autodiff tape; any reassociated reduction, lossy export, or
//! tie-break drift would show up here as a `to_bits` mismatch. Covers
//! both head shapes: SceneRec (Eq. 14 rating MLP) and BPR-MF (dot +
//! item bias).

use scenerec_baselines::BprMf;
use scenerec_core::checkpoint::CheckpointStore;
use scenerec_core::trainer::{train, TrainConfig};
use scenerec_core::{top_k_unseen, PairwiseModel, Precision, SceneRec, SceneRecConfig};
use scenerec_data::{generate, Dataset, GeneratorConfig};
use scenerec_faults::Injector;
use scenerec_graph::{ItemId, UserId};
use scenerec_serve::{
    replay_sharded, replay_sharded_with, responses_to_json, EngineConfig, ReplayOptions, Request,
    ShardReplayConfig, ShardedConfig, ShardedEngine, TimedRequest,
};

const SAMPLED_USERS: u32 = 50;
const TOP_K: usize = 10;

fn dataset() -> Dataset {
    let mut cfg = GeneratorConfig::tiny(2021);
    cfg.num_users = 60; // enough to sample 50 distinct users
    generate(&cfg).expect("dataset generation")
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 1,
        eval_every: 0,
        patience: 0,
        threads: 2,
        ..TrainConfig::default()
    }
}

/// Exact-equality check of every score the engine produces against the
/// tape, plus top-K (items AND score bits) for the sampled users.
fn assert_parity<M: PairwiseModel + Sync>(model: &M, data: &Dataset) {
    let engine = ShardedEngine::from_model_quantized(
        model,
        data,
        Precision::F32,
        ShardedConfig::with_shards(1),
    )
    .unwrap_or_else(|e| panic!("freezing {} failed: {e}", model.name()));
    assert_eq!(engine.num_users(), data.num_users() as usize);
    assert_eq!(engine.num_items(), data.num_items() as usize);

    let all_items: Vec<ItemId> = (0..data.num_items()).map(ItemId).collect();

    for user in 0..SAMPLED_USERS {
        // Full-catalog scores: exact f32 equality, compared as bits so a
        // -0.0/0.0 or NaN drift cannot slip through.
        let tape: Vec<u32> = model
            .score_values(UserId(user), &all_items)
            .iter()
            .map(|s| s.to_bits())
            .collect();
        let frozen: Vec<u32> = engine
            .score_all(user)
            .expect("engine scoring")
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(
            tape,
            frozen,
            "{}: user {user} frozen scores diverged from the tape",
            model.name()
        );

        // Top-K: identical items in identical order with identical bits.
        let served = engine.top_k(user, TOP_K).expect("engine top_k");
        let trained = top_k_unseen(model, data, UserId(user), TOP_K);
        assert_eq!(
            served.len(),
            trained.len(),
            "{}: user {user} top-k length",
            model.name()
        );
        for (rank, (a, b)) in served.iter().zip(&trained).enumerate() {
            assert_eq!(
                a.item,
                b.item,
                "{}: user {user} rank {rank} item mismatch",
                model.name()
            );
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{}: user {user} rank {rank} score bits mismatch",
                model.name()
            );
        }
    }
}

#[test]
fn scenerec_frozen_scores_match_tape_bit_for_bit() {
    let data = dataset();
    let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
    train(&mut model, &data, &train_cfg());
    assert_parity(&model, &data);
}

#[test]
fn bprmf_frozen_scores_match_tape_bit_for_bit() {
    let data = dataset();
    let mut model = BprMf::new(&data, 16, 11);
    train(&mut model, &data, &train_cfg());
    assert_parity(&model, &data);
}

const OVERLAP_K: usize = 20;

fn trained_bprmf(data: &Dataset) -> BprMf {
    let mut model = BprMf::new(data, 16, 11);
    train(&mut model, data, &train_cfg());
    model
}

fn quantized_engine(
    model: &BprMf,
    data: &Dataset,
    precision: Precision,
    cache_capacity: usize,
) -> ShardedEngine {
    let config = ShardedConfig {
        shards: 1,
        engine: EngineConfig {
            cache_capacity,
            ..EngineConfig::default()
        },
    };
    ShardedEngine::from_model_quantized(model, data, precision, config)
        .unwrap_or_else(|e| panic!("{} engine: {e}", precision.name()))
}

/// Every quantized precision must serve byte-identical responses across
/// worker counts {1, 2, 4}: quantization changes which numbers the
/// engine computes, never whether those numbers depend on scheduling.
#[test]
fn quantized_replay_is_byte_identical_across_worker_counts() {
    let data = dataset();
    let model = trained_bprmf(&data);
    let requests: Vec<Request> = (0..SAMPLED_USERS)
        .map(|user| Request { user, k: OVERLAP_K })
        .collect();
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let run = |workers: usize| {
            // A fresh engine per run so every request is a cold miss
            // regardless of worker interleaving.
            let engine = quantized_engine(&model, &data, precision, 0);
            let cfg = ShardReplayConfig {
                workers,
                max_batch: 16,
                ..ShardReplayConfig::default()
            };
            responses_to_json(&replay_sharded(&engine, &requests, &cfg))
        };
        let reference = run(1);
        for workers in [2usize, 4] {
            assert_eq!(
                run(workers),
                reference,
                "{}: bytes diverged at {workers} workers",
                precision.name()
            );
        }
    }
}

/// Int8 quantization is lossy, so we gate on ranking quality instead of
/// bits: mean top-20 overlap against the f32 engine must stay >= 0.95.
/// The f16 engine is held to the same bar (it is far above it).
#[test]
fn quantized_top_k_overlap_at_20_is_at_least_95_percent() {
    let data = dataset();
    let model = trained_bprmf(&data);
    let exact = quantized_engine(&model, &data, Precision::F32, 0);
    for precision in [Precision::F16, Precision::Int8] {
        let quant = quantized_engine(&model, &data, precision, 0);
        let mut kept = 0usize;
        let mut total = 0usize;
        for user in 0..SAMPLED_USERS {
            let want: std::collections::BTreeSet<ItemId> = exact
                .top_k(user, OVERLAP_K)
                .expect("f32 top_k")
                .iter()
                .map(|r| r.item)
                .collect();
            let got = quant.top_k(user, OVERLAP_K).expect("quant top_k");
            assert_eq!(got.len(), want.len(), "user {user} top-k length");
            kept += got.iter().filter(|r| want.contains(&r.item)).count();
            total += want.len();
        }
        let overlap = kept as f64 / total as f64;
        assert!(
            overlap >= 0.95,
            "{}: top-{OVERLAP_K} overlap {overlap:.4} < 0.95",
            precision.name()
        );
    }
}

/// Four shards are a partitioning of the single (one-shard) engine, not
/// a new scoring path: on a trained model, at every storage precision,
/// a 4-shard `replay_sharded` must render byte-identical responses to
/// the one-shard replay — and those bytes must not move across worker
/// counts {1, 2, 4}, since shard-pinned routing plus request-order
/// assembly make scheduling invisible.
#[test]
fn sharded_replay_is_byte_identical_to_single_engine_at_every_precision() {
    let data = dataset();
    let model = trained_bprmf(&data);
    let requests: Vec<Request> = (0..SAMPLED_USERS)
        .map(|user| Request { user, k: OVERLAP_K })
        .collect();
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let engine = quantized_engine(&model, &data, precision, 0);
        let reference = responses_to_json(&replay_sharded(
            &engine,
            &requests,
            &ShardReplayConfig {
                max_batch: 16,
                ..ShardReplayConfig::default()
            },
        ));
        for workers in [1usize, 2, 4] {
            let sharded = ShardedEngine::from_model_quantized(
                &model,
                &data,
                precision,
                ShardedConfig::with_shards(4),
            )
            .unwrap_or_else(|e| panic!("{} sharded engine: {e}", precision.name()));
            let cfg = ShardReplayConfig {
                workers,
                max_batch: 16,
                ..ShardReplayConfig::default()
            };
            assert_eq!(
                responses_to_json(&replay_sharded(&sharded, &requests, &cfg)),
                reference,
                "{}: sharded bytes diverged at {workers} workers",
                precision.name()
            );
        }
    }
}

/// Sharded trace *structure* is a pure function of the request log and
/// the shard count: the coordinator assembles every span tree in
/// deterministic shard order, so the digest over all trees is pinned
/// across worker counts on a trained model too.
#[test]
fn sharded_trace_structure_digest_is_pinned_across_worker_counts() {
    use scenerec_obs::trace::structure_digest;

    let data = dataset();
    let model = trained_bprmf(&data);
    let engine = ShardedEngine::from_model_quantized(
        &model,
        &data,
        Precision::F32,
        ShardedConfig::with_shards(4),
    )
    .expect("sharded engine");
    let requests: Vec<Request> = (0..SAMPLED_USERS)
        .map(|user| Request { user, k: OVERLAP_K })
        .collect();
    let digest_at = |workers: usize| {
        let replayed = replay_sharded_with(
            &engine,
            &TimedRequest::burst(&requests),
            &ShardReplayConfig {
                workers,
                max_batch: 16,
                ..ShardReplayConfig::default()
            },
            &ReplayOptions {
                trace: true,
                ..ReplayOptions::default()
            },
        );
        let (responses, traces) = (replayed.responses, replayed.traces);
        assert_eq!(traces.len(), responses.len());
        structure_digest(&traces)
    };
    let want = digest_at(1);
    for workers in [2usize, 4] {
        assert_eq!(
            want,
            digest_at(workers),
            "digest moved at {workers} workers"
        );
    }
}

/// Band size and kernel thread count must not perturb a single bit.
#[test]
fn parity_is_invariant_to_band_and_threads() {
    let data = dataset();
    let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
    train(&mut model, &data, &train_cfg());

    let reference = ShardedEngine::from_model_quantized(
        &model,
        &data,
        Precision::F32,
        ShardedConfig::with_shards(1),
    )
    .expect("freeze")
    .score_all(0)
    .expect("score");
    for (band, threads) in [(1usize, 1usize), (7, 2), (64, 4), (100_000, 3)] {
        let engine = ShardedEngine::from_model_quantized(
            &model,
            &data,
            Precision::F32,
            ShardedConfig {
                shards: 1,
                engine: EngineConfig {
                    band,
                    threads,
                    cache_capacity: 0,
                },
            },
        )
        .expect("freeze");
        let got = engine.score_all(0).expect("score");
        assert!(
            reference
                .iter()
                .zip(&got)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "band={band} threads={threads} perturbed scores"
        );
    }
}

/// A checkpoint's embedded int8 snapshot is served as saved:
/// `from_checkpoint` answers with the bytes of an engine built straight
/// from that snapshot, not from a re-freeze of the restored model.
#[test]
fn checkpointed_int8_snapshot_serves_the_same_bytes() {
    let data = dataset();
    let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
    train(&mut model, &data, &train_cfg());
    let frozen = model
        .freeze_quantized(Precision::Int8)
        .expect("SceneRec freezes at int8");
    let dir = std::env::temp_dir().join("scenerec-serving-parity-int8-checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = CheckpointStore::new(&dir, 1);
    store
        .save_with_frozen(&model, None, None, Some(&frozen), 0, &Injector::disabled())
        .expect("save");

    let loaded =
        ShardedEngine::from_checkpoint(&store.path_for(0), &data, ShardedConfig::with_shards(2))
            .expect("load");
    assert_eq!(loaded.precision(), Precision::Int8);
    let seen: Vec<Vec<u32>> = (0..data.num_users())
        .map(|u| data.train_graph.items_of(UserId(u)).to_vec())
        .collect();
    let direct = ShardedEngine::new(frozen, &seen, ShardedConfig::with_shards(2)).expect("build");
    let requests: Vec<Request> = (0..data.num_users())
        .map(|user| Request { user, k: TOP_K })
        .collect();
    let cfg = ShardReplayConfig::default();
    let want = responses_to_json(&replay_sharded(&direct, &requests, &cfg));
    assert_eq!(
        responses_to_json(&replay_sharded(&loaded, &requests, &cfg)),
        want
    );
    std::fs::remove_dir_all(&dir).ok();
}
