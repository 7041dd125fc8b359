//! The model abstraction shared by SceneRec and every baseline.
//!
//! A [`PairwiseModel`] owns a [`ParamStore`] and knows how to put the score
//! of a `(user, item)` pair onto a tape. Everything else — BPR sampling,
//! optimization, evaluation — is generic over this trait, guaranteeing
//! that Table 2's comparison uses the identical protocol for all ten rows.

use crate::freeze::{FrozenModel, Precision};
use scenerec_autodiff::{Graph, ParamStore, Var};
use scenerec_eval::Scorer;
use scenerec_graph::{ItemId, UserId};

/// A recommendation model trainable with pairwise (BPR) loss.
pub trait PairwiseModel {
    /// Model display name (Table 2 row label).
    fn name(&self) -> &str;

    /// The parameter store backing the model.
    fn store(&self) -> &ParamStore;

    /// Mutable access for the optimizer (and for a checkpoint load): the
    /// only route by which the parameters change, so a model that keeps
    /// anything derived from them drops it here.
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Builds the preference score `r'(u, i)` as a scalar node.
    fn build_score<'s>(&'s self, g: &mut Graph<'s>, user: UserId, item: ItemId) -> Var;

    /// Builds scores for one user against many candidates.
    ///
    /// The default loops over [`PairwiseModel::build_score`]; models whose
    /// user-side computation is expensive (SceneRec recomputes Eq. 1 per
    /// pair otherwise) override this to share it across candidates.
    fn build_scores<'s>(&'s self, g: &mut Graph<'s>, user: UserId, items: &[ItemId]) -> Vec<Var> {
        items
            .iter()
            .map(|&i| self.build_score(g, user, i))
            .collect()
    }

    /// Puts the BPR loss `-ln σ(r'(u, pos) - r'(u, neg))` (Eq. 15) of
    /// every `(user, pos, neg)` triple on one tape, in order: the
    /// trainer's micro-batch.
    ///
    /// The default builds two [`PairwiseModel::build_score`]s per triple.
    /// Models whose sub-results recur across triples (SceneRec's user,
    /// scene-sum, category and item representations) override this to
    /// build each of them once per tape. An override must not change any
    /// loss's value.
    fn build_bpr_losses<'s>(
        &'s self,
        g: &mut Graph<'s>,
        triples: &[(UserId, ItemId, ItemId)],
    ) -> Vec<Var> {
        triples
            .iter()
            .map(|&(user, pos, neg)| {
                let p = self.build_score(g, user, pos);
                let n = self.build_score(g, user, neg);
                g.bpr_loss(p, n)
            })
            .collect()
    }

    /// Inference-time scores for one user against many candidates, on a
    /// tape: the reference every frozen scoring path is compared against.
    fn score_values(&self, user: UserId, items: &[ItemId]) -> Vec<f32> {
        let mut g = Graph::new(self.store());
        let vars = self.build_scores(&mut g, user, items);
        vars.into_iter().map(|v| g.scalar(v)).collect()
    }

    /// Ranking-time scores for one user against many candidates: the
    /// f32s [`PairwiseModel::score_values`] returns, bit for bit. The
    /// evaluator ranks through this ([`ModelScorer`]).
    ///
    /// The default calls `score_values`. SceneRec overrides it with a
    /// frozen view of its parameters — its user rows and its catalog as
    /// one [`crate::freeze::ItemSide`] — built on the first call after a
    /// parameter change and dropped by [`PairwiseModel::store_mut`], so
    /// ranking a split freezes once and then runs only Eq. 14's head per
    /// candidate. An override must return what `score_values` returns,
    /// and must panic where it panics (an id outside the model).
    fn rank_scores(&self, user: UserId, items: &[ItemId]) -> Vec<f32> {
        self.score_values(user, items)
    }

    /// Exports a dense, tape-free snapshot for the serving engine
    /// (`scenerec-serve`), or `None` when the model does not support
    /// freezing.
    ///
    /// Implementations must guarantee **exact** f32 parity: scoring the
    /// frozen snapshot through `scenerec_tensor::score::score_bt` must
    /// reproduce [`PairwiseModel::score_values`] bit for bit.
    fn freeze(&self) -> Option<FrozenModel> {
        None
    }

    /// Exports a frozen snapshot with the entity matrices re-encoded at
    /// `precision` (f16 bits or per-row int8 codes; `Precision::F32`
    /// equals [`PairwiseModel::freeze`]). Returns `None` when the model
    /// does not support freezing.
    ///
    /// Quantized snapshots trade the bit-exact-parity guarantee for
    /// memory and speed; the engine-side determinism contract (identical
    /// scores across backends, threads and worker counts) still holds.
    fn freeze_quantized(&self, precision: Precision) -> Option<FrozenModel> {
        self.freeze().and_then(|m| m.quantize(precision).ok())
    }
}

/// Adapter exposing any [`PairwiseModel`] as an evaluation [`Scorer`].
///
/// It scores through [`PairwiseModel::rank_scores`], which returns
/// [`PairwiseModel::score_values`]'s bits, so every metric is the tape's;
/// a model with a frozen ranking view (SceneRec) ranks a whole split from
/// one freeze instead of one tape per user.
pub struct ModelScorer<'m, M: PairwiseModel + Sync>(pub &'m M);

impl<M: PairwiseModel + Sync> Scorer for ModelScorer<'_, M> {
    fn score_items(&self, user: UserId, items: &[ItemId]) -> Vec<f32> {
        self.0.rank_scores(user, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scenerec_autodiff::ParamStore;
    use scenerec_tensor::Initializer;

    /// A minimal dot-product model for exercising the trait machinery.
    struct DotModel {
        store: ParamStore,
        users: scenerec_autodiff::ParamId,
        items: scenerec_autodiff::ParamId,
    }

    impl DotModel {
        fn new(nu: usize, ni: usize, d: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = ParamStore::new();
            let users = store.add_embedding("u", nu, d, Initializer::Uniform(0.5), &mut rng);
            let items = store.add_embedding("i", ni, d, Initializer::Uniform(0.5), &mut rng);
            DotModel {
                store,
                users,
                items,
            }
        }
    }

    impl PairwiseModel for DotModel {
        fn name(&self) -> &str {
            "dot"
        }
        fn store(&self) -> &ParamStore {
            &self.store
        }
        fn store_mut(&mut self) -> &mut ParamStore {
            &mut self.store
        }
        fn build_score<'s>(&'s self, g: &mut Graph<'s>, user: UserId, item: ItemId) -> Var {
            let u = g.embed_row(self.users, user.raw());
            let i = g.embed_row(self.items, item.raw());
            g.dot(u, i)
        }
    }

    #[test]
    fn score_values_match_manual_dot() {
        let m = DotModel::new(3, 4, 8, 1);
        let scores = m.score_values(UserId(1), &[ItemId(0), ItemId(3)]);
        let urow = m.store.value(m.users).row(1).to_vec();
        let manual: Vec<f32> = [0usize, 3]
            .iter()
            .map(|&i| {
                m.store
                    .value(m.items)
                    .row(i)
                    .iter()
                    .zip(&urow)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect();
        for (s, m_) in scores.iter().zip(&manual) {
            assert!((s - m_).abs() < 1e-6);
        }
    }

    #[test]
    fn default_build_scores_equals_individual() {
        let m = DotModel::new(3, 4, 8, 2);
        let items = [ItemId(0), ItemId(1), ItemId(2)];
        let batch = m.score_values(UserId(0), &items);
        for (k, &i) in items.iter().enumerate() {
            let single = m.score_values(UserId(0), &[i]);
            assert!((batch[k] - single[0]).abs() < 1e-6);
        }
    }

    #[test]
    fn model_scorer_adapts() {
        use scenerec_eval::Scorer as _;
        let m = DotModel::new(2, 2, 4, 3);
        let s = ModelScorer(&m);
        let out = s.score_items(UserId(0), &[ItemId(0), ItemId(1)]);
        assert_eq!(out.len(), 2);
    }
}
