//! The SceneRec network (Eqs. 1–14) and its ablation variants.

use crate::api::PairwiseModel;
use crate::config::{SceneRecConfig, Variant};
use crate::freeze::{EntityMatrix, FrozenHead, FrozenLayer, FrozenModel, ItemSide};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenerec_autodiff::nn::Mlp;
use scenerec_autodiff::{Act, Graph, ParamId, ParamStore, Var};
use scenerec_data::Dataset;
use scenerec_graph::{BipartiteGraph, CategoryId, ItemId, SceneGraph, UserId};
use scenerec_tensor::{Initializer, Matrix};
use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::config::NeighborCaps;

/// The sub-results that recur across the scores of one tape, each built
/// once and keyed by its entity: user representations (Eq. 1), scene sums
/// (Eq. 3), category representations (Eqs. 4–7) and item representations
/// (Eq. 13). A cached `Var` holds the value a fresh build would, so
/// sharing changes no forward value, only how the backward pass groups
/// its sums. The maps are lookup-only `BTreeMap`s: lint rule D1 keeps
/// hash iteration out of Eqs. 1–15.
#[derive(Default)]
struct TapeCache {
    users: BTreeMap<u32, Var>,
    scene_sums: BTreeMap<u32, Var>,
    cat_reprs: BTreeMap<u32, Var>,
    items: BTreeMap<u32, Var>,
}

/// Candidate rows per head band when the ranking view scores a list:
/// bounds the scratch a full-catalog ranking takes. No score depends on
/// it.
const RANK_BAND: usize = 512;

/// SceneRec's ranking view of one parameter version: the frozen user
/// rows (Eq. 1) and the whole catalog (Eq. 13) as one [`ItemSide`], so
/// ranking a user runs only Eq. 14's head over its candidates.
struct RankView {
    users: EntityMatrix,
    items: ItemSide,
}

/// Layer sizes of the Eq. 13 fusion MLP (`2d → hidden… → d`) and of the
/// Eq. 14 rating MLP (`2d → hidden… → 1`), each with its parameter-name
/// prefix.
fn mlp_sizes(cfg: &SceneRecConfig) -> [(&'static str, Vec<usize>); 2] {
    let d = cfg.dim;
    let sizes = |hidden: &[usize], out: usize| {
        let mut sizes = vec![2 * d];
        sizes.extend_from_slice(hidden);
        sizes.push(out);
        sizes
    };
    [
        ("fusion", sizes(&cfg.fusion_hidden, d)),
        ("rating", sizes(&cfg.rating_hidden, 1)),
    ]
}

/// The SceneRec model.
///
/// Owns its parameters and (capped copies of) the neighborhood structure
/// it aggregates over. Constructed from a [`Dataset`] — **training-split
/// adjacency only**, so held-out positives never leak into Eq. 1/2
/// aggregations.
///
/// ```no_run
/// use scenerec_core::{SceneRec, SceneRecConfig, PairwiseModel};
/// use scenerec_core::trainer::{train, test, TrainConfig};
/// use scenerec_data::{generate, DatasetProfile, Scale};
///
/// let data = generate(&DatasetProfile::Electronics.config(Scale::Laptop, 42)).unwrap();
/// let mut model = SceneRec::new(SceneRecConfig::default().with_dim(32), &data);
/// let cfg = TrainConfig::default();
/// train(&mut model, &data, &cfg);
/// println!("{}", test(&model, &data, &cfg).metrics);
/// ```
pub struct SceneRec {
    cfg: SceneRecConfig,
    store: ParamStore,
    // Embedding tables.
    user_emb: ParamId,
    item_emb: ParamId,
    cat_emb: ParamId,
    scene_emb: ParamId,
    // Eq. 1 / Eq. 2 transforms.
    w_u: ParamId,
    b_u: ParamId,
    w_iu: ParamId,
    b_iu: ParamId,
    // Eq. 7 / Eq. 12 transforms (2d -> d).
    w_ic: ParamId,
    b_ic: ParamId,
    w_ii: ParamId,
    b_ii: ParamId,
    // Eq. 13 fusion MLP (2d -> d) and Eq. 14 rating MLP (2d -> 1).
    fusion: Mlp,
    rating: Mlp,
    // Capped neighborhoods (precomputed once).
    user_items: Vec<Vec<u32>>,
    item_users: Vec<Vec<u32>>,
    item_item: Vec<Vec<u32>>,
    cat_cat: Vec<Vec<u32>>,
    /// `CS(c)` per category.
    cat_scenes: Vec<Vec<u32>>,
    /// `C(i)` per item.
    item_cat: Vec<u32>,
    /// The ranking view of the current parameters: built from
    /// [`SceneRec::frozen`] by the first [`PairwiseModel::rank_scores`]
    /// call, dropped by [`PairwiseModel::store_mut`].
    view: OnceLock<RankView>,
}

impl SceneRec {
    /// Builds the model over a dataset's training graph and scene graph.
    pub fn new(cfg: SceneRecConfig, data: &Dataset) -> Self {
        Self::from_graphs(cfg, &data.train_graph, &data.scene_graph)
    }

    /// Builds the model from explicit graphs (the bipartite graph must be
    /// the training split).
    pub fn from_graphs(
        cfg: SceneRecConfig,
        bipartite: &BipartiteGraph,
        scene: &SceneGraph,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let d = cfg.dim;
        let mut store = ParamStore::new();
        let init = Initializer::XavierUniform;

        let user_emb = store.add_embedding(
            "user_emb",
            bipartite.num_users() as usize,
            d,
            init,
            &mut rng,
        );
        let item_emb = store.add_embedding(
            "item_emb",
            bipartite.num_items() as usize,
            d,
            init,
            &mut rng,
        );
        let cat_emb = store.add_embedding(
            "cat_emb",
            scene.num_categories() as usize,
            d,
            init,
            &mut rng,
        );
        let scene_emb =
            store.add_embedding("scene_emb", scene.num_scenes() as usize, d, init, &mut rng);

        let w_u = store.add_dense("w_u", d, d, init, &mut rng);
        let b_u = store.add_dense("b_u", d, 1, Initializer::Zeros, &mut rng);
        let w_iu = store.add_dense("w_iu", d, d, init, &mut rng);
        let b_iu = store.add_dense("b_iu", d, 1, Initializer::Zeros, &mut rng);
        let w_ic = store.add_dense("w_ic", d, 2 * d, init, &mut rng);
        let b_ic = store.add_dense("b_ic", d, 1, Initializer::Zeros, &mut rng);
        let w_ii = store.add_dense("w_ii", d, 2 * d, init, &mut rng);
        let b_ii = store.add_dense("b_ii", d, 1, Initializer::Zeros, &mut rng);

        let act: Act = cfg.activation.into();
        let [(fusion_name, fusion_sizes), (rating_name, rating_sizes)] = mlp_sizes(&cfg);
        let fusion = Mlp::new(&mut store, fusion_name, &fusion_sizes, act, act, &mut rng);
        let rating = Mlp::new(
            &mut store,
            rating_name,
            &rating_sizes,
            act,
            Act::Identity, // BPR needs an unbounded score
            &mut rng,
        );

        let caps = cfg.caps;
        let user_items = (0..bipartite.num_users())
            .map(|u| NeighborCaps::subsample(bipartite.items_of(UserId(u)), caps.user_items))
            .collect();
        let item_users = (0..bipartite.num_items())
            .map(|i| NeighborCaps::subsample(bipartite.users_of(ItemId(i)), caps.item_users))
            .collect();
        let item_item = (0..scene.num_items())
            .map(|i| NeighborCaps::subsample(scene.item_neighbors(ItemId(i)), caps.item_item))
            .collect();
        let cat_cat = (0..scene.num_categories())
            .map(|c| {
                NeighborCaps::subsample(
                    scene.category_neighbors(CategoryId(c)),
                    caps.category_category,
                )
            })
            .collect();
        let cat_scenes = (0..scene.num_categories())
            .map(|c| scene.scenes_of_category(CategoryId(c)).to_vec())
            .collect();
        let item_cat = (0..scene.num_items())
            .map(|i| scene.category_of(ItemId(i)).raw())
            .collect();

        SceneRec {
            cfg,
            store,
            user_emb,
            item_emb,
            cat_emb,
            scene_emb,
            w_u,
            b_u,
            w_iu,
            b_iu,
            w_ic,
            b_ic,
            w_ii,
            b_ii,
            fusion,
            rating,
            user_items,
            item_users,
            item_item,
            cat_cat,
            cat_scenes,
            item_cat,
            view: OnceLock::new(),
        }
    }

    /// Checks every width `cfg` implies against the parameters in
    /// `stored`, building nothing: `d` against `user_emb`'s columns (every
    /// other table and transform is sized from `d`) and each MLP layer
    /// against its stored weight. A checkpoint loader calls this before
    /// [`SceneRec::new`], which sizes every table from the config and so
    /// would try to allocate whatever width a hostile file names.
    pub(crate) fn check_widths(cfg: &SceneRecConfig, stored: &ParamStore) -> Result<(), String> {
        let shape = |name: &str| stored.lookup(name).map(|id| stored.value(id).shape());
        let user_dim = shape("user_emb").map(|(_, cols)| cols);
        if user_dim != Some(cfg.dim) {
            return Err(format!(
                "config dim {} vs `user_emb` columns {user_dim:?}",
                cfg.dim
            ));
        }
        for (mlp, sizes) in mlp_sizes(cfg) {
            for (k, io) in sizes.windows(2).enumerate() {
                let name = format!("{mlp}.{k}.w");
                let stored_shape = shape(&name);
                if stored_shape != Some((io[1], io[0])) {
                    return Err(format!(
                        "config sizes `{name}` {} -> {} vs stored {stored_shape:?}",
                        io[0], io[1]
                    ));
                }
            }
        }
        Ok(())
    }

    /// The configured variant.
    pub fn variant(&self) -> Variant {
        self.cfg.variant
    }

    /// The model configuration.
    pub fn config(&self) -> &SceneRecConfig {
        &self.cfg
    }

    fn act(&self) -> Act {
        self.cfg.activation.into()
    }

    fn zero_vec<'s>(&'s self, g: &mut Graph<'s>) -> Var {
        g.constant(Matrix::zeros(self.cfg.dim, 1))
    }

    /// Eq. 1: `m_u = σ(W_u · Σ_{i ∈ UI(u)} e_i + b_u)`.
    pub fn user_repr<'s>(&'s self, g: &mut Graph<'s>, u: UserId) -> Var {
        let sum = g.embed_sum(self.item_emb, &self.user_items[u.index()]);
        let aff = g.affine(self.w_u, self.b_u, sum);
        g.activation(aff, self.act())
    }

    /// Eq. 2: `m_i^U = σ(W_iu · Σ_{u ∈ IU(i)} e_u + b_iu)`.
    pub fn item_user_repr<'s>(&'s self, g: &mut Graph<'s>, i: ItemId) -> Var {
        let sum = g.embed_sum(self.user_emb, &self.item_users[i.index()]);
        let aff = g.affine(self.w_iu, self.b_iu, sum);
        g.activation(aff, self.act())
    }

    /// Eq. 3's scene sum for a category, `Σ_{s ∈ CS(c)} e_s`, once per
    /// tape.
    fn scene_sum<'s>(&'s self, g: &mut Graph<'s>, cache: &mut TapeCache, c: u32) -> Var {
        *cache
            .scene_sums
            .entry(c)
            .or_insert_with(|| g.embed_sum(self.scene_emb, &self.cat_scenes[c as usize]))
    }

    /// Eqs. 3–7: the fused category representation `m_c`, once per tape.
    fn category_repr<'s>(&'s self, g: &mut Graph<'s>, c: u32, cache: &mut TapeCache) -> Var {
        if let Some(&v) = cache.cat_reprs.get(&c) {
            return v;
        }
        // h^S (Eq. 3).
        let h_s = self.scene_sum(g, cache, c);
        // h^C (Eqs. 4-6).
        let neighbors = &self.cat_cat[c as usize];
        let h_c = if neighbors.is_empty() {
            self.zero_vec(g)
        } else {
            match self.cfg.variant {
                Variant::Full | Variant::NoItem => {
                    let scores: Vec<Var> = neighbors
                        .iter()
                        .map(|&q| {
                            let sq = self.scene_sum(g, cache, q);
                            g.cosine(h_s, sq)
                        })
                        .collect();
                    let stacked = g.stack_scalars(&scores);
                    let alphas = g.softmax(stacked);
                    g.weighted_embed_sum(self.cat_emb, neighbors, alphas)
                }
                // noatt: uniform averaging; nosce never calls this.
                Variant::NoAttention | Variant::NoScene => g.embed_mean(self.cat_emb, neighbors),
            }
        };
        // Eq. 7: m_c = σ(W_ic [h^S ‖ h^C] + b_ic).
        let cat = g.concat(&[h_s, h_c]);
        let aff = g.affine(self.w_ic, self.b_ic, cat);
        let m_c = g.activation(aff, self.act());
        cache.cat_reprs.insert(c, m_c);
        m_c
    }

    /// Eqs. 8–12: the scene-based item representation `m_i^S`.
    fn item_scene_repr<'s>(&'s self, g: &mut Graph<'s>, i: ItemId, cache: &mut TapeCache) -> Var {
        let c = self.item_cat[i.index()];
        // h^C_i (Eq. 8) — zero under nosce (no category/scene layers).
        let h_cat = if self.cfg.variant == Variant::NoScene {
            self.zero_vec(g)
        } else {
            self.category_repr(g, c, cache)
        };
        // h^I_i (Eqs. 9-11) — zero under noitem.
        let neighbors = &self.item_item[i.index()];
        let h_item = if self.cfg.variant == Variant::NoItem || neighbors.is_empty() {
            self.zero_vec(g)
        } else {
            match self.cfg.variant {
                Variant::Full => {
                    // IS(i) = CS(C(i)): scene sums keyed by category.
                    let si = self.scene_sum(g, cache, c);
                    let scores: Vec<Var> = neighbors
                        .iter()
                        .map(|&q| {
                            let sq = self.scene_sum(g, cache, self.item_cat[q as usize]);
                            g.cosine(si, sq)
                        })
                        .collect();
                    let stacked = g.stack_scalars(&scores);
                    let betas = g.softmax(stacked);
                    g.weighted_embed_sum(self.item_emb, neighbors, betas)
                }
                // noatt and nosce: uniform averaging over item neighbors.
                Variant::NoAttention | Variant::NoScene => g.embed_mean(self.item_emb, neighbors),
                Variant::NoItem => unreachable!("handled above"),
            }
        };
        // Eq. 12: m_i^S = σ(W_ii [h^C ‖ h^I] + b_ii).
        let cat = g.concat(&[h_cat, h_item]);
        let aff = g.affine(self.w_ii, self.b_ii, cat);
        g.activation(aff, self.act())
    }

    /// Eq. 13: the general item representation `m_i = F(W_i [m^U ‖ m^S])`,
    /// once per tape.
    fn item_repr<'s>(&'s self, g: &mut Graph<'s>, i: ItemId, cache: &mut TapeCache) -> Var {
        if let Some(&v) = cache.items.get(&i.raw()) {
            return v;
        }
        let m_u = self.item_user_repr(g, i);
        let m_s = self.item_scene_repr(g, i, cache);
        let cat = g.concat(&[m_u, m_s]);
        let m_i = self.fusion.forward(g, cat);
        cache.items.insert(i.raw(), m_i);
        m_i
    }

    /// Eq. 1 for `u`, once per tape.
    fn cached_user_repr<'s>(&'s self, g: &mut Graph<'s>, u: UserId, cache: &mut TapeCache) -> Var {
        *cache
            .users
            .entry(u.raw())
            .or_insert_with(|| self.user_repr(g, u))
    }

    /// Eq. 14 given a precomputed user representation. The rating MLP's
    /// first layer reads `[m_u ‖ m_i]` in two parts
    /// (`Graph::affine_split`), so its item half is a function of the
    /// item alone, which the frozen engine projects once per item.
    fn score_with_user<'s>(
        &'s self,
        g: &mut Graph<'s>,
        m_user: Var,
        i: ItemId,
        cache: &mut TapeCache,
    ) -> Var {
        let m_item = self.item_repr(g, i, cache);
        self.rating.forward_split(g, m_user, m_item)
    }

    /// The raw (pre-softmax) scene-based attention score between two items
    /// (Eq. 10's cosine) computed outside any tape — the quantity plotted
    /// in Figure 3's case study.
    pub fn scene_attention_score(&self, a: ItemId, b: ItemId) -> f32 {
        let table = self.store.value(self.scene_emb);
        let d = self.cfg.dim;
        let sum_for = |i: ItemId| -> Vec<f32> {
            let c = self.item_cat[i.index()];
            let mut acc = vec![0.0f32; d];
            for &s in &self.cat_scenes[c as usize] {
                scenerec_tensor::linalg::axpy(1.0, table.row(s as usize), &mut acc);
            }
            acc
        };
        scenerec_tensor::numeric::cosine_similarity(&sum_for(a), &sum_for(b))
    }

    /// The tape-free snapshot of the current parameters that
    /// [`PairwiseModel::freeze`] returns and the ranking view is built
    /// from.
    fn frozen(&self) -> FrozenModel {
        // Eqs. 1 and 13 depend only on the entity, never on the pairing, so
        // they are evaluated once per entity on the ordinary tape — the
        // values are the exact f32s `score_values` would produce. Chunked
        // tapes bound memory at paper-scale catalogs; tape-local caches only
        // deduplicate Vars, they never change node values, so the chunking
        // is value-invariant. Validation freezes once per pass (the ranking
        // view), so the chunk is kept small: on a 2-vCPU AMD EPYC box,
        // 256-entity tapes raised perfbench `train_electronics`'s peak RSS
        // by about 1.7 MiB, 128-entity ones by about 0.3 MiB.
        const CHUNK: usize = 128;
        let d = self.cfg.dim;
        let num_users = self.user_items.len();
        let num_items = self.item_cat.len();

        let mut users = Matrix::zeros(num_users, d);
        for chunk_start in (0..num_users).step_by(CHUNK) {
            let mut g = Graph::new(&self.store);
            for u in chunk_start..(chunk_start + CHUNK).min(num_users) {
                let v = self.user_repr(&mut g, UserId(u as u32));
                users.set_row(u, g.value(v).as_slice());
            }
        }

        let mut items = Matrix::zeros(num_items, d);
        for chunk_start in (0..num_items).step_by(CHUNK) {
            let mut g = Graph::new(&self.store);
            let mut cache = TapeCache::default();
            for i in chunk_start..(chunk_start + CHUNK).min(num_items) {
                let v = self.item_repr(&mut g, ItemId(i as u32), &mut cache);
                items.set_row(i, g.value(v).as_slice());
            }
        }

        let layers = self
            .rating
            .layers()
            .iter()
            .map(|layer| FrozenLayer {
                w: self.store.value(layer.weight()).clone(),
                b: self.store.value(layer.bias()).as_slice().to_vec(),
                act: layer.act(),
            })
            .collect();

        FrozenModel::dense(self.name(), users, items, FrozenHead::Mlp { layers })
    }

    /// Number of trainable scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }
}

impl std::fmt::Debug for SceneRec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SceneRec")
            .field("variant", &self.cfg.variant)
            .field("dim", &self.cfg.dim)
            .field("parameters", &self.num_parameters())
            .finish_non_exhaustive()
    }
}

impl PairwiseModel for SceneRec {
    fn name(&self) -> &str {
        self.cfg.variant.name()
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        // The caller may change any parameter: the ranking view is stale.
        self.view.take();
        &mut self.store
    }

    fn build_score<'s>(&'s self, g: &mut Graph<'s>, user: UserId, item: ItemId) -> Var {
        let m_user = self.user_repr(g, user);
        self.score_with_user(g, m_user, item, &mut TapeCache::default())
    }

    fn build_scores<'s>(&'s self, g: &mut Graph<'s>, user: UserId, items: &[ItemId]) -> Vec<Var> {
        // Share the user representation and all category-level
        // computations across the candidate list.
        let m_user = self.user_repr(g, user);
        let mut cache = TapeCache::default();
        items
            .iter()
            .map(|&i| self.score_with_user(g, m_user, i, &mut cache))
            .collect()
    }

    fn build_bpr_losses<'s>(
        &'s self,
        g: &mut Graph<'s>,
        triples: &[(UserId, ItemId, ItemId)],
    ) -> Vec<Var> {
        // One cache for the whole micro-batch: a user, an item or a
        // category that recurs across triples is built once.
        let mut cache = TapeCache::default();
        triples
            .iter()
            .map(|&(user, pos, neg)| {
                let m_user = self.cached_user_repr(g, user, &mut cache);
                let p = self.score_with_user(g, m_user, pos, &mut cache);
                let n = self.score_with_user(g, m_user, neg, &mut cache);
                g.bpr_loss(p, n)
            })
            .collect()
    }

    fn freeze(&self) -> Option<FrozenModel> {
        Some(self.frozen())
    }

    fn rank_scores(&self, user: UserId, items: &[ItemId]) -> Vec<f32> {
        let view = self.view.get_or_init(|| {
            let frozen = self.frozen();
            let user_dim = frozen.users.cols();
            let items = ItemSide::new(frozen.items, frozen.head, user_dim)
                // lint:allow(R1): the rating head is built from this model's own widths
                .expect("SceneRec's rating head fits its frozen rows");
            RankView {
                users: frozen.users,
                items,
            }
        });
        let rows: Vec<u32> = items.iter().map(|i| i.raw()).collect();
        view.items
            .score_rows(&view.users, user.index(), &rows, RANK_BAND)
            // lint:allow(R1): an id outside the model is a caller bug, on which `score_values` panics too
            .expect("ranked user and items lie in the model")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenerec_autodiff::GradStore;
    use scenerec_data::{generate, GeneratorConfig};

    fn tiny_dataset() -> Dataset {
        generate(&GeneratorConfig::tiny(21)).unwrap()
    }

    fn model(variant: Variant) -> (SceneRec, Dataset) {
        let data = tiny_dataset();
        let cfg = SceneRecConfig::default()
            .with_dim(8)
            .with_variant(variant)
            .with_seed(5);
        (SceneRec::new(cfg, &data), data)
    }

    #[test]
    fn forward_produces_finite_scalar_scores() {
        for variant in [
            Variant::Full,
            Variant::NoItem,
            Variant::NoScene,
            Variant::NoAttention,
        ] {
            let (m, _) = model(variant);
            let scores = m.score_values(UserId(0), &[ItemId(0), ItemId(1), ItemId(5)]);
            assert_eq!(scores.len(), 3, "{variant:?}");
            assert!(
                scores.iter().all(|s| s.is_finite()),
                "{variant:?}: {scores:?}"
            );
        }
    }

    #[test]
    fn batch_scores_equal_individual_scores() {
        let (m, _) = model(Variant::Full);
        let items = [ItemId(3), ItemId(10), ItemId(40)];
        let batch = m.score_values(UserId(2), &items);
        for (k, &i) in items.iter().enumerate() {
            let single = m.score_values(UserId(2), &[i]);
            assert!(
                (batch[k] - single[0]).abs() < 1e-5,
                "batch {} vs single {}",
                batch[k],
                single[0]
            );
        }
    }

    #[test]
    fn backward_touches_all_parameter_groups() {
        let (m, _) = model(Variant::Full);
        let mut g = Graph::new(m.store());
        let pos = m.build_score(&mut g, UserId(0), ItemId(0));
        let neg = m.build_score(&mut g, UserId(0), ItemId(1));
        let loss = g.bpr_loss(pos, neg);
        let mut grads = GradStore::new(m.store());
        g.backward(loss, &mut grads);
        assert!(grads.all_finite());
        // Scene embeddings must receive gradients through the attention
        // path — this is the paper's key coupling.
        let scene_id = m.store().lookup("scene_emb").unwrap();
        assert!(
            !grads.sparse(scene_id).is_empty(),
            "no gradient reached scene embeddings"
        );
        let cat_id = m.store().lookup("cat_emb").unwrap();
        assert!(!grads.sparse(cat_id).is_empty());
        let w_u = m.store().lookup("w_u").unwrap();
        assert!(grads.dense(w_u).is_some());
    }

    #[test]
    fn noscene_variant_has_no_scene_gradients() {
        let (m, _) = model(Variant::NoScene);
        let mut g = Graph::new(m.store());
        let pos = m.build_score(&mut g, UserId(0), ItemId(0));
        let neg = m.build_score(&mut g, UserId(0), ItemId(1));
        let loss = g.bpr_loss(pos, neg);
        let mut grads = GradStore::new(m.store());
        g.backward(loss, &mut grads);
        let scene_id = m.store().lookup("scene_emb").unwrap();
        assert!(
            grads.sparse(scene_id).is_empty(),
            "nosce must not touch scene embeddings"
        );
    }

    #[test]
    fn variants_differ_in_scores() {
        // Same seed, same data: removing components must change outputs.
        let (full, _) = model(Variant::Full);
        let (noitem, _) = model(Variant::NoItem);
        let s_full = full.score_values(UserId(1), &[ItemId(2)]);
        let s_noitem = noitem.score_values(UserId(1), &[ItemId(2)]);
        assert!((s_full[0] - s_noitem[0]).abs() > 1e-7);
    }

    #[test]
    fn gradcheck_full_model() {
        // Use tanh for the check: ReLU's kink makes central differences
        // unreliable near zero activations without indicating a bug.
        let data = tiny_dataset();
        let mut cfg = SceneRecConfig::default().with_dim(8).with_seed(5);
        cfg.activation = crate::config::ActChoice::Tanh;
        let m = SceneRec::new(cfg, &data);
        let (u, pos, neg) = (UserId(0), ItemId(0), ItemId(7));
        let mut grads = GradStore::new(m.store());
        {
            let mut g = Graph::new(m.store());
            let p = m.build_score(&mut g, u, pos);
            let n = m.build_score(&mut g, u, neg);
            let loss = g.bpr_loss(p, n);
            g.backward(loss, &mut grads);
        }
        // Finite differences run against a *clone* of the store: the model
        // provides topology and parameter ids only, values come from the
        // perturbed clone the checker passes to the closure.
        let mut probe_store = m.store().clone();
        let report =
            scenerec_autodiff::gradcheck::check_gradients(&mut probe_store, &grads, 5e-3, 8, |s| {
                let mut g = Graph::new(s);
                let p = m.build_score(&mut g, u, pos);
                let n = m.build_score(&mut g, u, neg);
                let loss = g.bpr_loss(p, n);
                g.scalar(loss)
            });
        assert!(
            report.passes(0.08),
            "max rel err {} at {:?} over {} checks",
            report.max_rel_error,
            report.worst,
            report.checked
        );
    }

    /// Triples that repeat a user, an item and a category: items 0..3 of
    /// the first category holding three items, two users and one item of
    /// another category.
    fn shared_triples(data: &Dataset) -> Vec<(UserId, ItemId, ItemId)> {
        let sg = &data.scene_graph;
        let same = (0..sg.num_categories())
            .map(|c| sg.items_of_category(CategoryId(c)))
            .find(|items| items.len() >= 3)
            .expect("a category with three items");
        let other = (0..data.num_items())
            .map(ItemId)
            .find(|&i| sg.category_of(i) != sg.category_of(same[0]))
            .expect("an item of another category");
        let (u, v) = (UserId(0), UserId(1));
        vec![
            (u, same[0], other),
            (u, same[1], same[0]),
            (v, other, same[2]),
            (u, same[2], same[1]),
        ]
    }

    /// Every triple's loss on a tape of its own.
    fn per_pair_losses(m: &SceneRec, triples: &[(UserId, ItemId, ItemId)]) -> Vec<u32> {
        triples
            .iter()
            .map(|&(u, pos, neg)| {
                let mut g = Graph::new(m.store());
                let p = m.build_score(&mut g, u, pos);
                let n = m.build_score(&mut g, u, neg);
                let loss = g.bpr_loss(p, n);
                g.scalar(loss).to_bits()
            })
            .collect()
    }

    #[test]
    fn micro_batch_losses_equal_per_pair_losses_bit_for_bit() {
        let data = tiny_dataset();
        let triples = shared_triples(&data);
        for variant in [
            Variant::Full,
            Variant::NoItem,
            Variant::NoScene,
            Variant::NoAttention,
        ] {
            let (m, _) = model(variant);
            let mut g = Graph::new(m.store());
            let losses = m.build_bpr_losses(&mut g, &triples);
            let shared: Vec<u32> = losses.iter().map(|&l| g.scalar(l).to_bits()).collect();
            assert_eq!(shared, per_pair_losses(&m, &triples), "{variant:?}");
            // Sharing is what the override is for: the micro-batch tape
            // is shorter than the per-pair tapes together.
            let per_pair: usize = triples
                .iter()
                .map(|&t| {
                    let mut g = Graph::new(m.store());
                    m.build_bpr_losses(&mut g, &[t]);
                    g.len()
                })
                .sum();
            assert!(g.len() < per_pair, "{variant:?}: {} nodes", g.len());
        }
    }

    #[test]
    fn gradcheck_micro_batch_tape() {
        // Two triples share a user and a category, so the shared user,
        // scene-sum and category Vars each collect adjoints from both.
        let data = tiny_dataset();
        let mut cfg = SceneRecConfig::default().with_dim(8).with_seed(5);
        cfg.activation = crate::config::ActChoice::Tanh;
        let m = SceneRec::new(cfg, &data);
        let triples = shared_triples(&data)[..2].to_vec();
        let total = |g: &mut Graph<'_>, losses: &[Var]| {
            let stacked = g.stack_scalars(losses);
            g.sum(stacked)
        };
        let mut grads = GradStore::new(m.store());
        {
            let mut g = Graph::new(m.store());
            let losses = m.build_bpr_losses(&mut g, &triples);
            let loss = total(&mut g, &losses);
            g.backward(loss, &mut grads);
        }
        let mut probe_store = m.store().clone();
        let report =
            scenerec_autodiff::gradcheck::check_gradients(&mut probe_store, &grads, 5e-3, 8, |s| {
                let mut g = Graph::new(s);
                let losses = m.build_bpr_losses(&mut g, &triples);
                let loss = total(&mut g, &losses);
                g.scalar(loss)
            });
        assert!(
            report.passes(0.08),
            "max rel err {} at {:?} over {} checks",
            report.max_rel_error,
            report.worst,
            report.checked
        );
    }

    #[test]
    fn scene_attention_score_is_cosine_like() {
        let (m, data) = model(Variant::Full);
        let n = data.num_items();
        for i in 0..n.min(10) {
            for j in 0..n.min(10) {
                let s = m.scene_attention_score(ItemId(i), ItemId(j));
                assert!((-1.0..=1.0).contains(&s));
            }
        }
        // Same category => identical scene sets => score 1 (when scenes
        // exist for that category).
        let c0_items = data.scene_graph.items_of_category(CategoryId(0));
        if c0_items.len() >= 2
            && !data
                .scene_graph
                .scenes_of_category(CategoryId(0))
                .is_empty()
        {
            let s = m.scene_attention_score(c0_items[0], c0_items[1]);
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn num_parameters_counts_everything() {
        let (m, data) = model(Variant::Full);
        let d = 8usize;
        let expected_embeddings = (data.num_users() as usize
            + data.num_items() as usize
            + data.scene_graph.num_categories() as usize
            + data.scene_graph.num_scenes() as usize)
            * d;
        assert!(m.num_parameters() > expected_embeddings);
    }
}
