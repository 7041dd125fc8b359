//! Frozen scoring: the engine knobs, the serving errors, and the one
//! routine that scores item rows against a user row.
//!
//! # Parity contract
//!
//! For any user/item, [`crate::ShardedEngine`] scores are
//! **bit-identical** to what the training-side
//! `PairwiseModel::score_values` would produce on a tape, and
//! [`crate::ShardedEngine::top_k`] returns exactly what `top_k_for_user`
//! would (same scores, same tie-breaks). This holds because:
//!
//! * the frozen user/item rows are tape-evaluated values (see
//!   `scenerec_core::freeze`),
//! * the head replays through `score_bt`, whose per-element reduction
//!   order matches the tape's `affine` operator and is invariant to the
//!   thread count and band size,
//! * candidates are scanned in ascending item order and ties resolve to
//!   the smaller item id, matching the training-side stable sort.
//!
//! The cache never changes responses — a hit returns the same bits a
//! recompute would — so serving stays deterministic at any worker count.
//!
//! # Quantized engines
//!
//! An engine can serve a frozen model at any
//! [`scenerec_core::Precision`]:
//!
//! * **f32** keeps the bit-exact tape parity above.
//! * **f16** widens rows exactly at score time (the only error vs. f32
//!   is the one-time narrowing at freeze), in the same float order as
//!   the f32 kernels.
//! * **int8** scores dot heads in exact integer arithmetic
//!   (`scenerec_tensor::quant::dot_i8_centered`) with one fixed-order
//!   f32 rescale per element.
//!
//! Every precision keeps the *determinism* contract: identical bytes
//! across kernel backends, thread counts and worker counts. Cache keys
//! carry the precision tag, so entries can never cross precisions.

use scenerec_core::{EntityMatrix, FrozenHead};
use scenerec_data::Dataset;
use scenerec_graph::UserId;
use scenerec_tensor::score::try_score_bt;
use scenerec_tensor::{linalg, quant, Matrix};

/// Per-shard tuning knobs for a [`crate::ShardedEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Candidate rows scored per kernel call (bounds scratch memory).
    pub band: usize,
    /// Threads handed to the scoring kernel within one request.
    pub threads: usize,
    /// Max entries in the (user, k) result cache; 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            band: 512,
            threads: 1,
            cache_capacity: 1024,
        }
    }
}

/// Errors raised by the serving engine.
#[derive(Debug)]
pub enum ServeError {
    /// The source model does not support freezing.
    Unsupported(String),
    /// The frozen snapshot (or checkpoint) is inconsistent or unloadable.
    Invalid(String),
    /// A request named a user outside the frozen universe.
    UserOutOfRange {
        /// The offending user id.
        user: u32,
        /// The number of users the engine was frozen with.
        num_users: usize,
    },
    /// A request named an item outside the frozen universe.
    ItemOutOfRange {
        /// The offending item id.
        item: u32,
        /// The number of items the engine was frozen with.
        num_items: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Unsupported(name) => {
                write!(f, "model `{name}` does not support freezing")
            }
            ServeError::Invalid(e) => write!(f, "invalid frozen model: {e}"),
            ServeError::UserOutOfRange { user, num_users } => {
                write!(f, "user {user} out of range (engine has {num_users} users)")
            }
            ServeError::ItemOutOfRange { item, num_items } => {
                write!(f, "item {item} out of range (engine has {num_items} items)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Scores `ids` (row indices into `items` / the head's per-item state)
/// against `users` row `user`.
///
/// This is the one scoring implementation behind the engine: each
/// `ShardedEngine` shard calls it with shard-local ids over its sliced
/// matrix + head. Per-element scores depend only on the user row, the
/// item row, and that item's head state — never on which other ids
/// ride in the same call — so slicing (like banding and threading,
/// pinned by `parity_is_invariant_to_band_and_threads`) cannot change a
/// single bit.
///
/// Callers are responsible for bounds checks; `ids` must index within
/// `items`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_ids(
    users: &EntityMatrix,
    items: &EntityMatrix,
    head: &FrozenHead,
    user: usize,
    ids: &[u32],
    band: usize,
    threads: usize,
) -> Result<Vec<f32>, ServeError> {
    let band = band.max(1);
    let mut out = Vec::with_capacity(ids.len());
    match head {
        // Dot heads score straight off the stored representation:
        // f32 keeps the tape-exact `linalg::dot`, f16 widens item
        // lanes in-kernel against the (exactly widened) user row,
        // int8 accumulates in exact integer arithmetic and rescales
        // with one fixed-order f32 multiply chain per element.
        FrozenHead::DotBias { bias } => match (users, items) {
            (EntityMatrix::F32(users), EntityMatrix::F32(catalog)) => {
                let u = users.row(user);
                for &i in ids {
                    out.push(linalg::dot(u, catalog.row(i as usize)) + bias[i as usize]);
                }
            }
            (EntityMatrix::F16(users), EntityMatrix::F16(catalog)) => {
                let mut u = vec![0.0f32; users.cols()];
                users.widen_row_into(user, &mut u);
                for &i in ids {
                    out.push(quant::dot_f16(&u, catalog.row(i as usize)) + bias[i as usize]);
                }
            }
            (EntityMatrix::Int8(users), EntityMatrix::Int8(catalog)) => {
                let uc = users.centered_row(user);
                let su = users.scale(user);
                for &i in ids {
                    let it = i as usize;
                    let zv = catalog.zero_point(it) as i16;
                    let idot = quant::dot_i8_centered(&uc, catalog.row(it), zv);
                    out.push(su * catalog.scale(it) * idot as f32 + bias[it]);
                }
            }
            // Engine constructors validate matching precisions;
            // reachable only through a hand-built inconsistent model.
            _ => {
                return Err(ServeError::Invalid(
                    "user/item entity matrices disagree on precision".to_owned(),
                ))
            }
        },
        // MLP heads expand rows to f32 (copy / exact widen /
        // dequantize) and replay the f32 layer stack; the expansion
        // is deterministic, so so is the whole path.
        FrozenHead::Mlp { layers } => {
            let du = users.cols();
            let di = items.cols();
            let mut u = vec![0.0f32; du];
            users.expand_row_into(user, &mut u);
            for chunk in ids.chunks(band) {
                let mut h = Matrix::zeros(chunk.len(), du + di);
                for (r, &i) in chunk.iter().enumerate() {
                    let row = h.row_mut(r);
                    row[..du].copy_from_slice(&u);
                    items.expand_row_into(i as usize, &mut row[du..]);
                }
                for layer in layers {
                    let mut y = try_score_bt(&h, &layer.w, Some(&layer.b), threads)
                        .map_err(|e| ServeError::Invalid(e.to_string()))?;
                    for v in y.as_mut_slice() {
                        *v = layer.act.apply(*v);
                    }
                    h = y;
                }
                out.extend_from_slice(h.as_slice());
            }
        }
    }
    Ok(out)
}

/// Per-user seen-item lists from the dataset's training interactions —
/// the same exclusion set `top_k_unseen` uses.
pub(crate) fn seen_lists(data: &Dataset) -> Vec<Vec<u32>> {
    (0..data.num_users())
        .map(|u| data.train_graph.items_of(UserId(u)).to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedConfig, ShardedEngine};
    use scenerec_core::{FrozenModel, Precision};

    /// A tiny hand-built dot-product model: 3 users, 4 items, dim 2.
    fn toy_frozen() -> FrozenModel {
        let mut users = Matrix::zeros(3, 2);
        users.set_row(0, &[1.0, 0.0]);
        users.set_row(1, &[0.0, 1.0]);
        users.set_row(2, &[1.0, 1.0]);
        let mut items = Matrix::zeros(4, 2);
        items.set_row(0, &[1.0, 0.0]);
        items.set_row(1, &[0.0, 1.0]);
        items.set_row(2, &[0.5, 0.5]);
        items.set_row(3, &[2.0, 0.0]);
        FrozenModel::dense(
            "toy",
            users,
            items,
            FrozenHead::DotBias { bias: vec![0.0; 4] },
        )
    }

    /// A one-shard engine: the whole catalog behind one cache.
    fn one_shard(frozen: FrozenModel, seen: &[Vec<u32>]) -> ShardedEngine {
        ShardedEngine::new(frozen, seen, ShardedConfig::with_shards(1)).unwrap()
    }

    fn toy_engine(seen: &[Vec<u32>]) -> ShardedEngine {
        one_shard(toy_frozen(), seen)
    }

    #[test]
    fn scores_match_manual_dot() {
        let engine = toy_engine(&[vec![], vec![], vec![]]);
        let scores = engine.score_all(0).unwrap();
        assert_eq!(scores, vec![1.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn top_k_excludes_seen_and_ranks() {
        let engine = toy_engine(&[vec![3], vec![], vec![]]);
        let recs = engine.top_k(0, 2).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].item.raw(), 0); // item 3 (score 2.0) is seen
        assert_eq!(recs[1].item.raw(), 2);
    }

    #[test]
    fn cache_hit_returns_identical_result() {
        let engine = toy_engine(&[vec![], vec![], vec![]]);
        let first = engine.top_k(2, 3).unwrap();
        assert_eq!(engine.shard_cache_len(0).unwrap(), 1);
        let second = engine.top_k(2, 3).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn mark_seen_invalidates_and_refilters() {
        let mut engine = toy_engine(&[vec![], vec![], vec![]]);
        let before = engine.top_k(0, 1).unwrap();
        assert_eq!(before[0].item.raw(), 3);
        engine.mark_seen(0, 3).unwrap();
        let after = engine.top_k(0, 1).unwrap();
        assert_eq!(after[0].item.raw(), 0);
    }

    #[test]
    fn out_of_range_requests_error() {
        let mut engine = toy_engine(&[vec![], vec![], vec![]]);
        assert!(matches!(
            engine.top_k(99, 1),
            Err(ServeError::UserOutOfRange { user: 99, .. })
        ));
        assert!(matches!(
            engine.mark_seen(0, 17),
            Err(ServeError::ItemOutOfRange { item: 17, .. })
        ));
    }

    #[test]
    fn new_rejects_wrong_seen_count() {
        let err = ShardedEngine::new(toy_frozen(), &[vec![]], ShardedConfig::with_shards(1));
        assert!(matches!(err, Err(ServeError::Invalid(_))));
    }

    /// A larger pseudo-random dot model for the quantized-path tests —
    /// the toy 0/1 weights are exactly representable at every precision
    /// and would hide quantization entirely.
    fn random_frozen(num_users: usize, num_items: usize, dim: usize) -> FrozenModel {
        let mut v = 0.37f32;
        let mut next = move || {
            v = (v * 1.9 + 0.13).fract() - 0.5;
            v * 3.0
        };
        let users = Matrix::from_vec(
            num_users,
            dim,
            (0..num_users * dim).map(|_| next()).collect(),
        )
        .unwrap();
        let items = Matrix::from_vec(
            num_items,
            dim,
            (0..num_items * dim).map(|_| next()).collect(),
        )
        .unwrap();
        let bias = (0..num_items).map(|_| next() * 0.1).collect();
        FrozenModel::dense("rand", users, items, FrozenHead::DotBias { bias })
    }

    fn quantized_frozen(precision: Precision) -> FrozenModel {
        random_frozen(6, 40, 33).quantize(precision).unwrap()
    }

    fn quantized_engine(precision: Precision) -> ShardedEngine {
        let seen: Vec<Vec<u32>> = (0..6).map(|u| vec![u as u32]).collect();
        one_shard(quantized_frozen(precision), &seen)
    }

    /// Every precision's scores equal a from-scratch recompute off the
    /// stored representation — pinned bit-for-bit, so any accidental
    /// reordering (or backend divergence) in the quantized paths fails
    /// loudly.
    #[test]
    fn quantized_scores_match_manual_recompute_bitwise() {
        use scenerec_tensor::quant::{dot_f16, dot_i8_centered};

        for precision in [Precision::F16, Precision::Int8] {
            let engine = quantized_engine(precision);
            let frozen = quantized_frozen(precision);
            assert_eq!(engine.precision(), precision);
            let items: Vec<u32> = (0..engine.num_items() as u32).collect();
            for user in 0..engine.num_users() as u32 {
                let got = engine.score_all(user).unwrap();
                let FrozenHead::DotBias { bias } = &frozen.head else {
                    unreachable!()
                };
                for (j, &i) in items.iter().enumerate() {
                    let want = match (&frozen.users, &frozen.items) {
                        (EntityMatrix::F16(u), EntityMatrix::F16(c)) => {
                            let mut uw = vec![0.0f32; u.cols()];
                            u.widen_row_into(user as usize, &mut uw);
                            dot_f16(&uw, c.row(i as usize)) + bias[i as usize]
                        }
                        (EntityMatrix::Int8(u), EntityMatrix::Int8(c)) => {
                            let uc = u.centered_row(user as usize);
                            let zv = c.zero_point(i as usize) as i16;
                            let idot = dot_i8_centered(&uc, c.row(i as usize), zv);
                            u.scale(user as usize) * c.scale(i as usize) * idot as f32
                                + bias[i as usize]
                        }
                        _ => unreachable!(),
                    };
                    assert_eq!(
                        got[j].to_bits(),
                        want.to_bits(),
                        "{} user {user} item {i}",
                        precision.name()
                    );
                }
            }
        }
    }

    /// int8 quantization is coarse but order-preserving enough that the
    /// served top-K overlaps the f32 ranking heavily; f16 rounding is a
    /// half-ulp and overlaps near-perfectly. (The hard ≥0.95 @ K=20 gate
    /// runs in `tests/serving_parity.rs` on trained BPR-MF weights.)
    #[test]
    fn quantized_top_k_overlaps_f32() {
        let f32_engine = {
            let frozen = random_frozen(6, 40, 33);
            let seen: Vec<Vec<u32>> = (0..6).map(|u| vec![u as u32]).collect();
            one_shard(frozen, &seen)
        };
        for precision in [Precision::F16, Precision::Int8] {
            let engine = quantized_engine(precision);
            for user in 0..6u32 {
                let want: Vec<u32> = f32_engine
                    .top_k(user, 10)
                    .unwrap()
                    .iter()
                    .map(|r| r.item.raw())
                    .collect();
                let got: Vec<u32> = engine
                    .top_k(user, 10)
                    .unwrap()
                    .iter()
                    .map(|r| r.item.raw())
                    .collect();
                let overlap = got.iter().filter(|i| want.contains(i)).count();
                assert!(
                    overlap >= 8,
                    "{} user {user}: top-10 overlap {overlap}/10 (got {got:?}, want {want:?})",
                    precision.name()
                );
            }
        }
    }

    /// Entries never cross precisions in the result cache: engines at
    /// different precisions produce their own cache keys.
    #[test]
    fn quantized_engine_serves_from_its_own_cache_key() {
        let engine = quantized_engine(Precision::Int8);
        let first = engine.top_k(1, 5).unwrap();
        assert_eq!(engine.shard_cache_len(0).unwrap(), 1);
        let second = engine.top_k(1, 5).unwrap();
        assert_eq!(first, second);
        let (hits, misses) = engine.shard_cache_stats(0).unwrap();
        assert_eq!((hits, misses), (1, 1));
    }

    /// An MLP head over quantized matrices expands rows to f32 and
    /// replays the f32 stack — scores equal the same-head engine built
    /// over the pre-expanded dense matrices.
    #[test]
    fn quantized_mlp_head_equals_dense_expansion() {
        use scenerec_autodiff::Act;
        use scenerec_core::FrozenLayer;

        let base = random_frozen(4, 12, 6);
        let (EntityMatrix::F32(users), EntityMatrix::F32(items)) = (&base.users, &base.items)
        else {
            unreachable!()
        };
        let head = FrozenHead::Mlp {
            layers: vec![
                FrozenLayer {
                    w: Matrix::from_vec(3, 12, (0..36).map(|i| (i as f32 - 18.0) / 23.0).collect())
                        .unwrap(),
                    b: vec![0.05, -0.05, 0.0],
                    act: Act::Tanh,
                },
                FrozenLayer {
                    w: Matrix::from_vec(1, 3, vec![0.5, -0.25, 0.125]).unwrap(),
                    b: vec![0.01],
                    act: Act::Identity,
                },
            ],
        };
        let mlp = FrozenModel::dense("mlp", users.clone(), items.clone(), head);
        let seen: Vec<Vec<u32>> = (0..4).map(|_| vec![]).collect();
        for precision in [Precision::F16, Precision::Int8] {
            let q = mlp.quantize(precision).unwrap();
            // Reference: densify the quantized matrices by hand and run
            // the plain f32 engine over them.
            let dense =
                FrozenModel::dense("mlp", q.users.to_f32(), q.items.to_f32(), q.head.clone());
            let qe = one_shard(q, &seen);
            let de = one_shard(dense, &seen);
            for user in 0..4u32 {
                let a = qe.score_all(user).unwrap();
                let b = de.score_all(user).unwrap();
                let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb, "{} user {user}", precision.name());
            }
        }
    }
}
