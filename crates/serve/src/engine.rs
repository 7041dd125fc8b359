//! The engine knobs, the serving errors and the seen-item lists.
//!
//! Scoring itself is `scenerec_core::ItemSide`, the one frozen scoring
//! routine, which carries the parity contract: for any user/item, an f32
//! [`crate::ShardedEngine`] scores bit-identically to what the
//! training-side `PairwiseModel::score_values` would produce on a tape.
//! On top of it the engine keeps one serving guarantee of its own:
//! [`crate::ShardedEngine::top_k`] returns exactly what `top_k_for_user`
//! would (same scores, same tie-breaks), because candidates are scanned
//! in ascending item order and ties resolve to the smaller item id,
//! matching the training-side stable sort.
//!
//! The cache never changes responses — a hit returns the same bits a
//! recompute would — so serving stays deterministic at any worker count.
//! Cache keys carry the precision tag, so entries can never cross
//! precisions.

use scenerec_data::Dataset;
use scenerec_graph::UserId;

/// Per-shard tuning knobs for a [`crate::ShardedEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The tile height: a miss walks its shard's item rows `band` at a
    /// time, and a replay task scores every pending request of its
    /// micro-batch against one tile, four requests at a time into one
    /// reused 4 × `band` score buffer (8 KiB at the default 512, so it
    /// stays in L1), before moving to the next tile; a tile of this many
    /// rows (64 KiB at f32, d = 32, for the default 512) should sit in
    /// L2 while the batch passes over it. It also bounds the rows per
    /// MLP head band. No score depends on it.
    pub band: usize,
    /// Max entries in the (user, k) result cache; 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            band: 512,
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
    use scenerec_core::{FrozenHead, FrozenModel, Precision};
    use scenerec_tensor::Matrix;

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
}
