//! BPR-MF (Rendle et al. 2009): matrix factorization under the pairwise
//! BPR objective. Score = `p_u · q_i + b_i`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scenerec_autodiff::{Graph, ParamId, ParamStore, Var};
use scenerec_core::PairwiseModel;
use scenerec_data::Dataset;
use scenerec_graph::{ItemId, UserId};
use scenerec_tensor::Initializer;

/// Matrix-factorization baseline.
pub struct BprMf {
    store: ParamStore,
    user_emb: ParamId,
    item_emb: ParamId,
    item_bias: ParamId,
}

impl BprMf {
    /// Builds the model for the dataset's universes.
    pub fn new(data: &Dataset, dim: usize, seed: u64) -> Self {
        Self::with_sizes(
            data.num_users() as usize,
            data.num_items() as usize,
            dim,
            seed,
        )
    }

    /// The learned user embedding table (one row per user).
    pub fn user_embeddings(&self) -> &scenerec_tensor::Matrix {
        self.store.value(self.user_emb)
    }

    /// The learned item embedding table (one row per item).
    pub fn item_embeddings(&self) -> &scenerec_tensor::Matrix {
        self.store.value(self.item_emb)
    }

    /// Builds the model for explicit universe sizes.
    pub fn with_sizes(num_users: usize, num_items: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let init = Initializer::Normal(0.1);
        let user_emb = store.add_embedding("user_emb", num_users, dim, init, &mut rng);
        let item_emb = store.add_embedding("item_emb", num_items, dim, init, &mut rng);
        let item_bias =
            store.add_embedding("item_bias", num_items, 1, Initializer::Zeros, &mut rng);
        BprMf {
            store,
            user_emb,
            item_emb,
            item_bias,
        }
    }
}

impl PairwiseModel for BprMf {
    fn name(&self) -> &str {
        "BPR-MF"
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn build_score<'s>(&'s self, g: &mut Graph<'s>, user: UserId, item: ItemId) -> Var {
        let p = g.embed_row(self.user_emb, user.raw());
        let q = g.embed_row(self.item_emb, item.raw());
        let dot = g.dot(p, q);
        let b = g.embed_row(self.item_bias, item.raw());
        g.add(dot, b)
    }

    fn freeze(&self) -> Option<scenerec_core::FrozenModel> {
        // The tape computes `dot(p, q) + b_i` with linalg::dot; the frozen
        // DotBias head replays exactly that, so parity is bit-exact.
        Some(scenerec_core::FrozenModel::dense(
            self.name(),
            self.store.value(self.user_emb).clone(),
            self.store.value(self.item_emb).clone(),
            scenerec_core::FrozenHead::DotBias {
                bias: self.store.value(self.item_bias).column(0),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenerec_core::trainer::{test, train, EpochRecord, OptimizerKind, TrainConfig};
    use scenerec_data::{generate, GeneratorConfig};

    #[test]
    fn scores_are_dot_plus_bias() {
        let m = BprMf::with_sizes(2, 3, 4, 1);
        let s = m.score_values(UserId(0), &[ItemId(1)]);
        let p = m.store.value(m.user_emb).row(0).to_vec();
        let q = m.store.value(m.item_emb).row(1).to_vec();
        let manual: f32 = p.iter().zip(&q).map(|(a, b)| a * b).sum::<f32>()
            + m.store.value(m.item_bias).get(1, 0);
        assert!((s[0] - manual).abs() < 1e-6);
    }

    #[test]
    fn parallel_training_bit_identical_across_threads() {
        // The trainer's data-parallel determinism guarantee, exercised on
        // a baseline (SceneRec's version lives in scenerec-core): same
        // seed => bit-identical parameters at any worker count.
        let data = generate(&GeneratorConfig::tiny(62)).unwrap();
        let outcome = |threads: usize| {
            let mut m = BprMf::new(&data, 16, 7);
            let cfg = TrainConfig {
                epochs: 2,
                learning_rate: 0.02,
                lambda: 1e-6,
                optimizer: OptimizerKind::RmsProp,
                eval_every: 0,
                patience: 0,
                batch_size: 8,
                threads,
                ..TrainConfig::default()
            };
            let report = train(&mut m, &data, &cfg);
            let params: Vec<Vec<f32>> = m
                .store
                .iter()
                .map(|(_, p)| p.value().as_slice().to_vec())
                .collect();
            (params, report.epochs)
        };
        let (base_params, base_epochs) = outcome(1);
        for threads in [2usize, 4, 8] {
            let (params, epochs) = outcome(threads);
            assert_eq!(base_params, params, "params diverged at threads={threads}");
            assert_eq!(base_epochs, epochs, "records diverged at threads={threads}");
        }
    }

    /// Trains BPR-MF on `tiny(62)` and returns its parameters (bit-exact
    /// `f32`s) and epoch records.
    fn outcome(batch_size: usize, threads: usize) -> (Vec<Vec<f32>>, Vec<EpochRecord>) {
        let data = generate(&GeneratorConfig::tiny(62)).unwrap();
        let mut m = BprMf::new(&data, 16, 7);
        let cfg = TrainConfig {
            epochs: 2,
            learning_rate: 0.02,
            lambda: 1e-6,
            optimizer: OptimizerKind::RmsProp,
            eval_every: 0,
            patience: 0,
            batch_size,
            threads,
            ..TrainConfig::default()
        };
        let report = train(&mut m, &data, &cfg);
        let params = m
            .store
            .iter()
            .map(|(_, p)| p.value().as_slice().to_vec())
            .collect();
        (params, report.epochs)
    }

    #[test]
    fn micro_batch_training_bit_identical_across_threads() {
        // Batch 35 is two 16-triple micro-batches and a short one, so
        // every thread count splits the slots differently.
        let (base_params, base_epochs) = outcome(35, 1);
        for threads in [2usize, 3, 8] {
            let (params, epochs) = outcome(35, threads);
            assert_eq!(base_params, params, "params diverged at threads={threads}");
            assert_eq!(base_epochs, epochs, "records diverged at threads={threads}");
        }
    }

    #[test]
    fn default_micro_batch_losses_equal_per_pair_losses_bit_for_bit() {
        // The trait's default puts each triple's two scores on the shared
        // tape; every loss keeps its per-pair value.
        let data = generate(&GeneratorConfig::tiny(62)).unwrap();
        let m = BprMf::new(&data, 16, 7);
        let (u, v) = (UserId(0), UserId(1));
        let triples = [
            (u, ItemId(1), ItemId(2)),
            (u, ItemId(3), ItemId(1)),
            (v, ItemId(2), ItemId(3)),
        ];
        let mut g = Graph::new(m.store());
        let losses = m.build_bpr_losses(&mut g, &triples);
        let shared: Vec<u32> = losses.iter().map(|&l| g.scalar(l).to_bits()).collect();
        let per_pair: Vec<u32> = triples
            .iter()
            .map(|&(u, pos, neg)| {
                let mut g = Graph::new(m.store());
                let p = m.build_score(&mut g, u, pos);
                let n = m.build_score(&mut g, u, neg);
                let loss = g.bpr_loss(p, n);
                g.scalar(loss).to_bits()
            })
            .collect();
        assert_eq!(shared, per_pair);
    }

    #[test]
    fn learns_on_tiny_dataset() {
        let data = generate(&GeneratorConfig::tiny(61)).unwrap();
        let mut m = BprMf::new(&data, 16, 2);
        let cfg = TrainConfig {
            epochs: 8,
            learning_rate: 0.02,
            lambda: 1e-6,
            optimizer: OptimizerKind::RmsProp,
            eval_every: 0,
            patience: 0,
            threads: 2,
            ..TrainConfig::default()
        };
        let report = train(&mut m, &data, &cfg);
        assert!(report.final_loss() < report.epochs[0].mean_loss);
        let summary = test(&m, &data, &cfg);
        // With 20 negatives, random NDCG@10 ≈ 0.23; trained must beat it.
        assert!(summary.metrics.ndcg > 0.3, "NDCG {}", summary.metrics.ndcg);
    }
}
