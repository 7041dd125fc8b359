//! Serving parity: the frozen engine and SceneRec's ranking view must
//! reproduce the training-side scoring path **bit for bit**.
//!
//! `ShardedEngine` replays the model head through dense kernels instead of
//! the autodiff tape; any reassociated reduction, lossy export, or
//! tie-break drift would show up here as a `to_bits` mismatch. Covers
//! both head shapes: SceneRec (Eq. 14 rating MLP) and BPR-MF (dot +
//! item bias). The evaluator ranks through `ModelScorer`, which SceneRec
//! answers from a frozen view of its parameters; that view must equal
//! the tape and follow every parameter change.

use scenerec_autodiff::{GradStore, Graph};
use scenerec_baselines::BprMf;
use scenerec_core::checkpoint::CheckpointStore;
use scenerec_core::trainer::{make_optimizer, train, TrainConfig};
use scenerec_core::{
    top_k_unseen, FrozenModel, ModelScorer, PairwiseModel, Precision, SceneRec, SceneRecConfig,
    Variant,
};
use scenerec_data::{generate, Dataset, GeneratorConfig};
use scenerec_eval::{evaluate, Scorer};
use scenerec_faults::Injector;
use scenerec_graph::{ItemId, UserId};
use scenerec_serve::{
    replay_sharded, replay_sharded_with, responses_to_json, EngineConfig, ReplayOptions, Request,
    ShardReplayConfig, ShardedConfig, ShardedEngine,
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

/// Exact-equality check of every score the engine at `precision`
/// produces against its reference, plus top-K (items AND score bits) for
/// the sampled users. At f32 the reference is the tape. At f16 and int8
/// it is an f32 engine over the quantized snapshot's rows expanded to
/// f32 (exact widening / dequantization): the rows a quantized engine
/// scores, and for an MLP head the rows it projects.
fn assert_parity<M: PairwiseModel + Sync>(model: &M, data: &Dataset, precision: Precision) {
    let label = format!("{} at {}", model.name(), precision.name());
    let engine =
        ShardedEngine::from_model_quantized(model, data, precision, ShardedConfig::with_shards(1))
            .unwrap_or_else(|e| panic!("freezing {label} failed: {e}"));
    assert_eq!(engine.num_users(), data.num_users() as usize);
    assert_eq!(engine.num_items(), data.num_items() as usize);

    let all_items: Vec<ItemId> = (0..data.num_items()).map(ItemId).collect();
    let expanded = (precision != Precision::F32).then(|| {
        let q = model.freeze_quantized(precision).expect("model freezes");
        let dense = FrozenModel::dense(
            q.name.clone(),
            q.users.to_f32(),
            q.items.to_f32(),
            q.head.clone(),
        );
        ShardedEngine::new(dense, &seen_lists(data), ShardedConfig::with_shards(1))
            .expect("expanded engine")
    });

    for user in 0..SAMPLED_USERS {
        // Full-catalog scores: exact f32 equality, compared as bits so a
        // -0.0/0.0 or NaN drift cannot slip through.
        let want = match &expanded {
            None => model.score_values(UserId(user), &all_items),
            Some(reference) => reference.score_all(user).expect("reference scoring"),
        };
        let want: Vec<u32> = want.iter().map(|s| s.to_bits()).collect();
        let frozen: Vec<u32> = engine
            .score_all(user)
            .expect("engine scoring")
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(
            want, frozen,
            "{label}: user {user} frozen scores diverged from the reference"
        );

        // Top-K: identical items in identical order with identical bits.
        let served = engine.top_k(user, TOP_K).expect("engine top_k");
        let trained = match &expanded {
            None => top_k_unseen(model, data, UserId(user), TOP_K),
            Some(reference) => reference.top_k(user, TOP_K).expect("reference top_k"),
        };
        assert_eq!(
            served.len(),
            trained.len(),
            "{label}: user {user} top-k length"
        );
        for (rank, (a, b)) in served.iter().zip(&trained).enumerate() {
            assert_eq!(
                a.item, b.item,
                "{label}: user {user} rank {rank} item mismatch"
            );
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{label}: user {user} rank {rank} score bits mismatch"
            );
        }
    }
}

fn seen_lists(data: &Dataset) -> Vec<Vec<u32>> {
    (0..data.num_users())
        .map(|u| data.train_graph.items_of(UserId(u)).to_vec())
        .collect()
}

fn trained_scenerec(data: &Dataset, cfg: SceneRecConfig) -> SceneRec {
    let mut model = SceneRec::new(cfg, data);
    train(&mut model, data, &train_cfg());
    model
}

#[test]
fn scenerec_frozen_scores_match_tape_bit_for_bit() {
    let data = dataset();
    let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8), &data);
    train(&mut model, &data, &train_cfg());
    assert_parity(&model, &data, Precision::F32);
}

/// The split first layer at every rating-head shape: the split layer as
/// the scalar output layer (`rating_hidden = []`), followed by the output
/// layer (the default `[32]`), and followed by a hidden layer
/// (`[32, 16]`), each at every storage precision.
#[test]
fn scenerec_head_shapes_match_at_every_precision() {
    let data = dataset();
    for hidden in [vec![], vec![32], vec![32, 16]] {
        let mut cfg = SceneRecConfig::default().with_dim(8);
        cfg.rating_hidden = hidden;
        let model = trained_scenerec(&data, cfg);
        for precision in [Precision::F32, Precision::F16, Precision::Int8] {
            assert_parity(&model, &data, precision);
        }
    }
}

/// Swapping a shard of an MLP engine re-projects the new rows: after
/// shard 1 takes another model's item rows, every score equals a fresh
/// engine built over the spliced catalog.
#[test]
fn swapped_mlp_shard_scores_like_a_fresh_engine() {
    let data = dataset();
    let base = SceneRecConfig::default().with_dim(8);
    let a = trained_scenerec(&data, base.clone())
        .freeze()
        .expect("SceneRec freezes");
    let b = trained_scenerec(&data, base.with_seed(8))
        .freeze()
        .expect("SceneRec freezes");
    let seen = seen_lists(&data);
    let mut engine =
        ShardedEngine::new(a.clone(), &seen, ShardedConfig::with_shards(2)).expect("build");
    let range = engine.shard_map().range(1).expect("shard 1");
    let (start, end) = (range.start as usize, range.end as usize);
    let before = engine.score_all(0).expect("score");

    let (rows, _) = b.slice_items(start, end).expect("slice");
    let head = a.head.slice_items(start, end).expect("slice");
    engine.swap_shard(1, rows, head).expect("swap");

    let (mut spliced, b_items) = (a.items.to_f32(), b.items.to_f32());
    for r in start..end {
        spliced.set_row(r, b_items.row(r));
    }
    let fresh = FrozenModel::dense("spliced", a.users.to_f32(), spliced, a.head.clone());
    let fresh = ShardedEngine::new(fresh, &seen, ShardedConfig::with_shards(2)).expect("build");
    for user in 0..SAMPLED_USERS {
        let got: Vec<u32> = engine
            .score_all(user)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let want: Vec<u32> = fresh
            .score_all(user)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, want, "user {user}");
        assert_eq!(
            engine.top_k(user, TOP_K).unwrap(),
            fresh.top_k(user, TOP_K).unwrap()
        );
    }
    assert_ne!(
        before,
        engine.score_all(0).unwrap(),
        "the swap changed nothing"
    );
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Every validation and test instance's candidates scored two ways, as
/// bits: through `ModelScorer` (how the evaluator ranks), and on a fresh
/// tape (`score_values`).
fn ranked_and_tape_bits<M: PairwiseModel + Sync>(
    model: &M,
    data: &Dataset,
) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let scorer = ModelScorer(model);
    data.split
        .validation
        .iter()
        .chain(&data.split.test)
        .map(|inst| {
            let items = inst.candidates();
            (
                bits(&scorer.score_items(inst.user, &items)),
                bits(&model.score_values(inst.user, &items)),
            )
        })
        .unzip()
}

/// One BPR triple's gradient, for an optimizer step outside training.
fn one_triple_grads(model: &SceneRec, data: &Dataset) -> GradStore {
    let (user, pos) = data.split.train[0];
    let neg = (0..data.num_items())
        .find(|i| !data.train_graph.items_of(user).contains(i))
        .map(ItemId)
        .expect("an item the user has not seen");
    let mut grads = GradStore::new(model.store());
    let mut g = Graph::new(model.store());
    let losses = model.build_bpr_losses(&mut g, &[(user, pos, neg)]);
    g.backward(losses[0], &mut grads);
    grads
}

/// SceneRec's ranking view equals the tape on every validation and test
/// instance, for every variant and rating-head shape, and follows every
/// parameter change: after an optimizer step and after the whole store
/// is replaced, the next ranking equals fresh tape scores (a view that
/// outlived either change would still hold the old bits). The evaluator
/// returns the tape's `EvalSummary` at every thread count.
#[test]
fn ranking_view_equals_the_tape_and_follows_parameter_changes() {
    let data = dataset();
    let tcfg = train_cfg();
    for variant in [
        Variant::Full,
        Variant::NoItem,
        Variant::NoScene,
        Variant::NoAttention,
    ] {
        for hidden in [vec![], vec![32], vec![32, 16]] {
            let label = format!("{} with rating head {hidden:?}", variant.name());
            let mut cfg = SceneRecConfig::default().with_dim(8).with_variant(variant);
            cfg.rating_hidden = hidden;
            let mut model = trained_scenerec(&data, cfg.clone());
            let (ranked, trained) = ranked_and_tape_bits(&model, &data);
            assert_eq!(ranked, trained, "{label}: trained");

            let tape = |user: UserId, items: &[ItemId]| model.score_values(user, items);
            for split in [&data.split.validation, &data.split.test] {
                let want = evaluate(&tape, split, TOP_K, 1);
                for threads in [1, 2, 4] {
                    let got = evaluate(&ModelScorer(&model), split, TOP_K, threads);
                    assert_eq!(got, want, "{label}: evaluate at {threads} threads");
                }
            }

            let grads = one_triple_grads(&model, &data);
            make_optimizer(&tcfg).step(model.store_mut(), &grads);
            let (ranked, stepped) = ranked_and_tape_bits(&model, &data);
            assert_ne!(stepped, trained, "{label}: the step changed no score");
            assert_eq!(ranked, stepped, "{label}: after an optimizer step");

            let other = SceneRec::new(cfg.with_seed(8), &data);
            *model.store_mut() = other.store().clone();
            let (ranked, replaced) = ranked_and_tape_bits(&model, &data);
            assert_ne!(replaced, stepped, "{label}: the new store changed no score");
            assert_eq!(ranked, replaced, "{label}: after the store was replaced");
        }
    }
}

/// A model without a ranking view (BPR-MF) ranks on the tape: the
/// default `rank_scores` is `score_values`.
#[test]
fn bprmf_ranks_through_the_default_path() {
    let data = dataset();
    let model = trained_bprmf(&data);
    let (ranked, tape) = ranked_and_tape_bits(&model, &data);
    assert_eq!(ranked, tape);
}

#[test]
fn bprmf_frozen_scores_match_tape_bit_for_bit() {
    let data = dataset();
    let mut model = BprMf::new(&data, 16, 11);
    train(&mut model, &data, &train_cfg());
    assert_parity(&model, &data, Precision::F32);
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
            &requests,
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

/// The tile height (`EngineConfig::band`) must not perturb a single bit.
#[test]
fn parity_is_invariant_to_band() {
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
    for band in [1usize, 7, 64, 100_000] {
        let engine = ShardedEngine::from_model_quantized(
            &model,
            &data,
            Precision::F32,
            ShardedConfig {
                shards: 1,
                engine: EngineConfig {
                    band,
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
            "band={band} perturbed scores"
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
    let direct = ShardedEngine::new(frozen, &seen_lists(&data), ShardedConfig::with_shards(2))
        .expect("build");
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
