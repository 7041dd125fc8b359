//! The end-to-end dataset generation pipeline.
//!
//! Pipeline stages (all deterministic in `config.seed`):
//!
//! 1. generate the scene taxonomy ([`crate::taxonomy::Taxonomy`]);
//! 2. assign each user preferred **scenes** and latent **taste
//!    categories**;
//! 3. simulate clicks from the scene/taste/noise mixture;
//! 4. simulate view **sessions** and accumulate co-view counts, yielding
//!    the item-item layer (top-K pruned) and the category-category layer
//!    (top-K + taxonomy-consistency labeling, replacing the paper's manual
//!    labeling step);
//! 5. build the scene-based graph and the bipartite graph;
//! 6. apply the leave-one-out split (§5.3).

use crate::config::GeneratorConfig;
use crate::dataset::{Dataset, GroundTruth};
use crate::popularity::WeightedSampler;
use crate::split::LeaveOneOutSplit;
use crate::taxonomy::Taxonomy;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scenerec_graph::{
    BipartiteGraphBuilder, CategoryId, GraphError, ItemId, SceneGraphBuilder, SceneId, UserId,
};
use std::collections::{BTreeMap, HashSet};

/// Generates a complete dataset from the configuration.
///
/// ```
/// use scenerec_data::{generate, GeneratorConfig};
///
/// let data = generate(&GeneratorConfig::tiny(7)).unwrap();
/// assert_eq!(data.num_users(), 40);
/// assert!(data.split.num_eval_users() > 0);
/// // Same seed, same dataset.
/// assert_eq!(data, generate(&GeneratorConfig::tiny(7)).unwrap());
/// ```
///
/// # Errors
/// Returns a human-readable message for invalid configurations and
/// propagates (should-not-happen) graph-validation failures.
pub fn generate(cfg: &GeneratorConfig) -> Result<Dataset, String> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let taxonomy = Taxonomy::generate(cfg, &mut rng);

    // Per-category popularity samplers (Zipf within category order).
    let category_samplers: Vec<WeightedSampler> = taxonomy
        .category_items
        .iter()
        .map(|items| WeightedSampler::zipf(items.iter().copied(), cfg.popularity_exponent))
        .collect();
    // Global category sampler weighted by category size (two-stage global
    // item draws for the noise component).
    let global_category = WeightedSampler::new(
        taxonomy
            .category_items
            .iter()
            .enumerate()
            .map(|(c, items)| (c as u32, items.len() as f64)),
    );

    // ---- user profiles ---------------------------------------------------
    let all_scenes: Vec<u32> = (0..cfg.num_scenes).collect();
    let all_categories: Vec<u32> = (0..cfg.num_categories).collect();
    let mut user_scenes = Vec::with_capacity(cfg.num_users as usize);
    let mut user_tastes = Vec::with_capacity(cfg.num_users as usize);
    for _ in 0..cfg.num_users {
        let k = (cfg.scenes_per_user as usize).min(all_scenes.len());
        let mut scenes: Vec<u32> = all_scenes.choose_multiple(&mut rng, k).copied().collect();
        scenes.sort_unstable();
        user_scenes.push(scenes);
        let k = (cfg.tastes_per_user as usize).min(all_categories.len());
        let mut tastes: Vec<u32> = all_categories
            .choose_multiple(&mut rng, k)
            .copied()
            .collect();
        tastes.sort_unstable();
        user_tastes.push(tastes);
    }

    // ---- clicks ------------------------------------------------------------
    // Draw one item from the scene/taste/noise mixture.
    let draw_item = |rng: &mut StdRng, u: usize| -> u32 {
        let x: f32 = rng.gen();
        let category = if x < cfg.p_scene {
            // Scene-coherent: preferred scene -> member category.
            let scenes = &user_scenes[u];
            let s = scenes[rng.gen_range(0..scenes.len())];
            let cats = taxonomy.categories_of(SceneId(s));
            cats[rng.gen_range(0..cats.len())]
        } else if x < cfg.p_scene + cfg.p_taste {
            // Latent taste category.
            let tastes = &user_tastes[u];
            tastes[rng.gen_range(0..tastes.len())]
        } else {
            // Popularity noise.
            global_category.sample(rng)
        };
        category_samplers[category as usize].sample(rng)
    };

    // Ordered click sequences (order matters for session construction).
    let mut user_clicks: Vec<Vec<u32>> = Vec::with_capacity(cfg.num_users as usize);
    for u in 0..cfg.num_users as usize {
        let n = rng.gen_range(cfg.interactions_min..=cfg.interactions_max) as usize;
        let mut seen = HashSet::with_capacity(n);
        let mut seq = Vec::with_capacity(n);
        // Cap attempts so degenerate configs cannot loop forever.
        let max_attempts = n * 30 + 100;
        let mut attempts = 0;
        while seq.len() < n && attempts < max_attempts {
            attempts += 1;
            let item = draw_item(&mut rng, u);
            if seen.insert(item) {
                seq.push(item);
            }
        }
        user_clicks.push(seq);
    }

    // ---- sessions & co-view counts ----------------------------------------
    // BTreeMaps, not HashMaps: these are iterated below to build the
    // item-item and category-category layers, and that traversal order
    // must be identical across process runs (lint rule D1).
    let mut pair_counts: BTreeMap<(u32, u32), f32> = BTreeMap::new();
    let mut cat_pair_counts: BTreeMap<(u32, u32), f32> = BTreeMap::new();
    let mut count_session = |items: &[u32]| {
        for (ai, &a) in items.iter().enumerate() {
            for &b in &items[ai + 1..] {
                if a == b {
                    continue;
                }
                let key = if a < b { (a, b) } else { (b, a) };
                *pair_counts.entry(key).or_insert(0.0) += 1.0;
                let ca = taxonomy.item_category[a as usize];
                let cb = taxonomy.item_category[b as usize];
                if ca != cb {
                    let ckey = if ca < cb { (ca, cb) } else { (cb, ca) };
                    *cat_pair_counts.entry(ckey).or_insert(0.0) += 1.0;
                }
            }
        }
    };

    for u in 0..cfg.num_users as usize {
        // Click sessions: consecutive chunks of the click sequence.
        for chunk in user_clicks[u].chunks(cfg.session_length as usize) {
            count_session(chunk);
        }
        // Extra view-only sessions themed on a preferred scene: these add
        // items the user viewed but did not click, enriching the co-view
        // graph exactly as §5.1 describes ("view" relations, not clicks).
        for _ in 0..cfg.extra_sessions_per_user {
            let scenes = &user_scenes[u];
            let s = scenes[rng.gen_range(0..scenes.len())];
            let cats = taxonomy.categories_of(SceneId(s));
            let mut session = Vec::with_capacity(cfg.session_length as usize);
            for _ in 0..cfg.session_length {
                let c = cats[rng.gen_range(0..cats.len())];
                session.push(category_samplers[c as usize].sample(&mut rng));
            }
            session.sort_unstable();
            session.dedup();
            count_session(&session);
        }
    }

    // ---- scene-based graph -------------------------------------------------
    let mut sb = SceneGraphBuilder::new(cfg.num_items, cfg.num_categories, cfg.num_scenes);
    for i in 0..cfg.num_items {
        sb.set_category(ItemId(i), CategoryId(taxonomy.item_category[i as usize]));
    }
    for (&(a, b), &w) in &pair_counts {
        sb.link_items(ItemId(a), ItemId(b), w);
    }
    // Category-category labeling: a pair survives when the taxonomy says
    // the categories share a scene (ground-truth relevance, replacing the
    // engineers' consensus labels) or when the co-view evidence is in the
    // top decile (strong behavioral relevance the labelers would accept).
    let strong = percentile_threshold(cat_pair_counts.values().copied(), 0.9);
    for (&(a, b), &w) in &cat_pair_counts {
        let relevant = taxonomy.share_scene(CategoryId(a), CategoryId(b)) || w >= strong;
        if relevant {
            sb.link_categories(CategoryId(a), CategoryId(b), w);
        }
    }
    for (s, cats) in taxonomy.scene_categories.iter().enumerate() {
        for &c in cats {
            sb.add_scene_member(SceneId(s as u32), CategoryId(c));
        }
    }
    sb.with_item_top_k(cfg.item_top_k)
        .with_category_top_k(cfg.category_top_k);
    let scene_graph = sb.build().map_err(|e: GraphError| e.to_string())?;

    // ---- bipartite graphs & split -------------------------------------------
    let mut fb = BipartiteGraphBuilder::new(cfg.num_users, cfg.num_items);
    for (u, clicks) in user_clicks.iter().enumerate() {
        for &i in clicks {
            fb.interact(UserId(u as u32), ItemId(i));
        }
    }
    let interactions = fb.build().map_err(|e| e.to_string())?;

    let split = LeaveOneOutSplit::build(&user_clicks, cfg.num_items, cfg.eval_negatives, &mut rng);

    let mut tb = BipartiteGraphBuilder::new(cfg.num_users, cfg.num_items);
    for &(u, i) in &split.train {
        tb.interact(u, i);
    }
    let train_graph = tb.build().map_err(|e| e.to_string())?;

    Ok(Dataset {
        name: cfg.name.clone(),
        config: cfg.clone(),
        interactions,
        train_graph,
        scene_graph,
        split,
        ground_truth: GroundTruth {
            user_scenes,
            user_tastes,
        },
    })
}

/// Smallest value at or above the given quantile of `values`
/// (`f32::INFINITY` when empty, so "strong co-view" never fires).
fn percentile_threshold(values: impl Iterator<Item = f32>, q: f64) -> f32 {
    let mut v: Vec<f32> = values.collect();
    if v.is_empty() {
        return f32::INFINITY;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
    v[idx.min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        generate(&GeneratorConfig::tiny(11)).unwrap()
    }

    #[test]
    fn generates_consistent_universes() {
        let cfg = GeneratorConfig::tiny(11);
        let d = dataset();
        assert_eq!(d.interactions.num_users(), cfg.num_users);
        assert_eq!(d.interactions.num_items(), cfg.num_items);
        assert_eq!(d.scene_graph.num_items(), cfg.num_items);
        assert_eq!(d.scene_graph.num_categories(), cfg.num_categories);
        assert_eq!(d.scene_graph.num_scenes(), cfg.num_scenes);
    }

    #[test]
    fn every_user_has_interactions_in_range() {
        let cfg = GeneratorConfig::tiny(11);
        let d = dataset();
        for u in 0..cfg.num_users {
            let deg = d.interactions.user_degree(UserId(u));
            assert!(deg >= 3, "user {u} has only {deg} interactions");
            assert!(deg <= cfg.interactions_max as usize);
        }
    }

    #[test]
    fn train_graph_is_a_subset_of_interactions() {
        let d = dataset();
        for (u, i, _) in d.train_graph.iter_interactions() {
            assert!(d.interactions.has_interaction(u, i));
        }
        assert!(d.train_graph.num_interactions() < d.interactions.num_interactions());
    }

    #[test]
    fn item_top_k_respected() {
        let cfg = GeneratorConfig::tiny(11);
        let d = dataset();
        for i in 0..cfg.num_items {
            assert!(
                d.scene_graph.item_neighbors(ItemId(i)).len() <= cfg.item_top_k,
                "item {i} exceeds top-k"
            );
        }
    }

    #[test]
    fn category_top_k_respected() {
        let cfg = GeneratorConfig::tiny(11);
        let d = dataset();
        for c in 0..cfg.num_categories {
            assert!(d.scene_graph.category_neighbors(CategoryId(c)).len() <= cfg.category_top_k);
        }
    }

    #[test]
    fn eval_instances_have_right_negative_count() {
        let cfg = GeneratorConfig::tiny(11);
        let d = dataset();
        for inst in d.split.validation.iter().chain(&d.split.test) {
            assert_eq!(inst.negatives.len(), cfg.eval_negatives as usize);
        }
        assert!(!d.split.test.is_empty());
    }

    #[test]
    fn deterministic_in_seed() {
        let d1 = generate(&GeneratorConfig::tiny(13)).unwrap();
        let d2 = generate(&GeneratorConfig::tiny(13)).unwrap();
        assert_eq!(d1.split, d2.split);
        assert_eq!(d1.scene_graph, d2.scene_graph);
        let d3 = generate(&GeneratorConfig::tiny(14)).unwrap();
        assert_ne!(d1.split, d3.split);
    }

    #[test]
    fn ground_truth_profiles_cover_all_users() {
        let cfg = GeneratorConfig::tiny(11);
        let d = dataset();
        assert_eq!(d.ground_truth.user_scenes.len(), cfg.num_users as usize);
        assert_eq!(d.ground_truth.user_tastes.len(), cfg.num_users as usize);
        for scenes in &d.ground_truth.user_scenes {
            assert!(!scenes.is_empty());
            for &s in scenes {
                assert!(s < cfg.num_scenes);
            }
        }
    }

    #[test]
    fn scene_signal_is_present() {
        // Items from a user's preferred scenes should be over-represented
        // among their clicks relative to the scene coverage of the catalog.
        let d = dataset();
        let cfg = &d.config;
        let mut in_scene = 0usize;
        let mut total = 0usize;
        for u in 0..cfg.num_users {
            let scenes = &d.ground_truth.user_scenes[u as usize];
            let preferred_cats: HashSet<u32> = scenes
                .iter()
                .flat_map(|&s| d.scene_graph.categories_of_scene(SceneId(s)).to_vec())
                .collect();
            for &i in d.interactions.items_of(UserId(u)) {
                total += 1;
                let c = d.scene_graph.category_of(ItemId(i)).raw();
                if preferred_cats.contains(&c) {
                    in_scene += 1;
                }
            }
        }
        let frac = in_scene as f64 / total as f64;
        // Preferred scenes cover a small fraction of categories; >35% of
        // clicks landing there demonstrates the planted signal.
        assert!(frac > 0.35, "scene-coherent fraction only {frac}");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = GeneratorConfig::tiny(0);
        cfg.p_noise = 0.9;
        assert!(generate(&cfg).is_err());
    }

    #[test]
    fn percentile_threshold_cases() {
        assert_eq!(percentile_threshold(std::iter::empty(), 0.9), f32::INFINITY);
        let t = percentile_threshold(vec![1.0, 2.0, 3.0, 4.0, 5.0].into_iter(), 0.5);
        assert_eq!(t, 3.0);
        let t = percentile_threshold(vec![1.0, 2.0].into_iter(), 1.0);
        assert_eq!(t, 2.0);
    }
}
