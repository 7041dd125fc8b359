//! Scene mining — the paper's stated future work (§6: "scene mining is
//! our future work"; §5.1 has experts hand-curating scenes).
//!
//! Given behavioral evidence of which categories co-occur (co-view
//! counts), mining recovers scene-like **overlapping category sets**
//! without human labeling:
//!
//! 1. normalize raw co-occurrence into an affinity in `[0, 1]`
//!    (count / min(total_a, total_b) — a containment coefficient robust
//!    to category-size imbalance);
//! 2. greedily grow scenes from the strongest unconsumed edge: repeatedly
//!    add the category with the highest *average* affinity to the current
//!    members while it stays above `min_affinity`, up to
//!    `max_scene_size`;
//! 3. mark the seed edge consumed and repeat until `max_scenes` or no
//!    edges above threshold remain. Categories may join several scenes
//!    (scenes overlap, as in the expert taxonomy).
//!
//! [`scene_recovery_score`] measures how well mined scenes match a
//! reference taxonomy (mean best-Jaccard); the `mined_scenes` bench binary
//! swaps mined scenes into SceneRec end-to-end.

use scenerec_graph::SceneGraph;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Symmetric category co-occurrence counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoOccurrence {
    num_categories: u32,
    /// `(a, b) -> count` with `a < b`. A `BTreeMap` so that
    /// [`Self::iter_pairs`] yields a deterministic, sorted pair order
    /// (lint rule D1) — mined scenes must be byte-identical across runs.
    counts: BTreeMap<(u32, u32), f64>,
    /// Per-category total mass.
    totals: Vec<f64>,
}

impl CoOccurrence {
    /// An empty accumulator over `num_categories` categories.
    pub fn new(num_categories: u32) -> Self {
        CoOccurrence {
            num_categories,
            counts: BTreeMap::new(),
            totals: vec![0.0; num_categories as usize],
        }
    }

    /// Number of categories.
    pub fn num_categories(&self) -> u32 {
        self.num_categories
    }

    /// Records one co-occurrence of two categories with the given weight.
    ///
    /// # Panics
    /// Panics when a category index is out of range.
    pub fn record(&mut self, a: u32, b: u32, weight: f64) {
        assert!(a < self.num_categories && b < self.num_categories);
        if a == b {
            return;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        *self.counts.entry(key).or_insert(0.0) += weight;
        self.totals[a as usize] += weight;
        self.totals[b as usize] += weight;
    }

    /// Folds every pair of a session's categories in.
    pub fn record_session(&mut self, categories: &[u32]) {
        for (i, &a) in categories.iter().enumerate() {
            for &b in &categories[i + 1..] {
                self.record(a, b, 1.0);
            }
        }
    }

    /// Extracts co-occurrence evidence from a scene graph's
    /// category-category layer (whose weights are co-view counts).
    pub fn from_scene_graph(graph: &SceneGraph) -> Self {
        let mut co = CoOccurrence::new(graph.num_categories());
        for (a, b, w) in graph.category_category_csr().iter_edges() {
            if a < b {
                co.record(a, b, w as f64);
            }
        }
        co
    }

    /// Containment-normalized affinity in `[0, 1]`:
    /// `count(a,b) / min(total(a), total(b))`; 0 when either side has no
    /// mass.
    pub fn affinity(&self, a: u32, b: u32) -> f64 {
        if a == b {
            return 1.0;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        let count = self.counts.get(&key).copied().unwrap_or(0.0);
        let denom = self.totals[a as usize].min(self.totals[b as usize]);
        if denom <= 0.0 {
            0.0
        } else {
            (count / denom).min(1.0)
        }
    }

    /// All `(a, b, count)` pairs, `a < b`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.counts.iter().map(|(&(a, b), &c)| (a, b, c))
    }
}

/// Mining hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MiningConfig {
    /// Largest category set a mined scene may contain.
    pub max_scene_size: usize,
    /// Minimum average affinity a category needs to join a scene.
    pub min_affinity: f64,
    /// Upper bound on the number of mined scenes.
    pub max_scenes: usize,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            max_scene_size: 8,
            min_affinity: 0.15,
            max_scenes: 64,
        }
    }
}

/// Greedily mines overlapping scenes from co-occurrence evidence. Returns
/// sorted category sets, strongest seed first; every scene has ≥ 2
/// categories (Definition 3.1 allows singletons, but a mined singleton
/// carries no information).
pub fn mine_scenes(co: &CoOccurrence, cfg: &MiningConfig) -> Vec<Vec<u32>> {
    // Candidate seed edges by descending count.
    let mut seeds: Vec<(u32, u32, f64)> = co.iter_pairs().collect();
    seeds.sort_by(|x, y| {
        y.2.partial_cmp(&x.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.0.cmp(&y.0))
            .then(x.1.cmp(&y.1))
    });

    let mut scenes: Vec<Vec<u32>> = Vec::new();
    let mut consumed: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();

    for &(sa, sb, _) in &seeds {
        if scenes.len() >= cfg.max_scenes {
            break;
        }
        if consumed.contains(&(sa, sb)) {
            continue;
        }
        if co.affinity(sa, sb) < cfg.min_affinity {
            continue;
        }
        let mut members = vec![sa, sb];
        // Greedy growth.
        while members.len() < cfg.max_scene_size {
            let mut best: Option<(u32, f64)> = None;
            for c in 0..co.num_categories() {
                if members.contains(&c) {
                    continue;
                }
                let avg: f64 =
                    members.iter().map(|&m| co.affinity(c, m)).sum::<f64>() / members.len() as f64;
                if avg >= cfg.min_affinity && best.is_none_or(|(_, b)| avg > b) {
                    best = Some((c, avg));
                }
            }
            match best {
                Some((c, _)) => members.push(c),
                None => break,
            }
        }
        // Consume all internal edges so the next seed starts a new region.
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                consumed.insert(if a < b { (a, b) } else { (b, a) });
            }
        }
        members.sort_unstable();
        members.dedup();
        scenes.push(members);
    }
    scenes
}

/// Mean best-Jaccard recovery of `reference` scenes by `mined` scenes
/// (1.0 = every reference scene recovered exactly; 0.0 = nothing shared).
pub fn scene_recovery_score(mined: &[Vec<u32>], reference: &[Vec<u32>]) -> f64 {
    if reference.is_empty() {
        return 0.0;
    }
    let jaccard = |a: &[u32], b: &[u32]| -> f64 {
        let sa: std::collections::HashSet<u32> = a.iter().copied().collect();
        let sb: std::collections::HashSet<u32> = b.iter().copied().collect();
        let inter = sa.intersection(&sb).count() as f64;
        let union = sa.union(&sb).count() as f64;
        if union == 0.0 {
            0.0
        } else {
            inter / union
        }
    };
    reference
        .iter()
        .map(|r| mined.iter().map(|m| jaccard(r, m)).fold(0.0f64, f64::max))
        .sum::<f64>()
        / reference.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig};

    /// Two clean clusters: {0,1,2} and {3,4}.
    fn clustered() -> CoOccurrence {
        let mut co = CoOccurrence::new(5);
        for _ in 0..10 {
            co.record_session(&[0, 1, 2]);
            co.record_session(&[3, 4]);
        }
        // Weak cross noise.
        co.record(2, 3, 1.0);
        co
    }

    #[test]
    fn record_and_affinity() {
        let co = clustered();
        assert!(co.affinity(0, 1) > 0.3);
        assert!(co.affinity(0, 1) > co.affinity(2, 3));
        assert_eq!(co.affinity(0, 0), 1.0);
        // Unseen pair.
        assert_eq!(co.affinity(0, 4), 0.0);
    }

    #[test]
    fn affinity_is_symmetric_and_bounded() {
        let co = clustered();
        for a in 0..5 {
            for b in 0..5 {
                let x = co.affinity(a, b);
                assert!((0.0..=1.0).contains(&x));
                assert_eq!(x, co.affinity(b, a));
            }
        }
    }

    #[test]
    fn mining_recovers_clean_clusters() {
        let co = clustered();
        let scenes = mine_scenes(&co, &MiningConfig::default());
        assert!(!scenes.is_empty());
        let truth = vec![vec![0, 1, 2], vec![3, 4]];
        let score = scene_recovery_score(&scenes, &truth);
        assert!(score > 0.8, "recovery {score}; mined {scenes:?}");
    }

    #[test]
    fn mining_respects_limits() {
        let co = clustered();
        let cfg = MiningConfig {
            max_scene_size: 2,
            min_affinity: 0.05,
            max_scenes: 1,
        };
        let scenes = mine_scenes(&co, &cfg);
        assert_eq!(scenes.len(), 1);
        assert!(scenes[0].len() <= 2);
    }

    #[test]
    fn high_threshold_mines_nothing() {
        // Affinity is capped at 1.0 (the {3,4} pair reaches it), so only a
        // threshold above 1.0 suppresses all seeds.
        let co = clustered();
        let cfg = MiningConfig {
            min_affinity: 1.01,
            ..MiningConfig::default()
        };
        assert!(mine_scenes(&co, &cfg).is_empty());
        // And a merely high threshold keeps only the perfect pair.
        let strict = MiningConfig {
            min_affinity: 0.99,
            ..MiningConfig::default()
        };
        let scenes = mine_scenes(&co, &strict);
        assert_eq!(scenes, vec![vec![3, 4]]);
    }

    #[test]
    fn recovery_score_bounds() {
        let truth = vec![vec![0, 1], vec![2, 3]];
        assert_eq!(scene_recovery_score(&truth, &truth), 1.0);
        assert_eq!(scene_recovery_score(&[], &truth), 0.0);
        assert_eq!(scene_recovery_score(&truth, &[]), 0.0);
        let disjoint = vec![vec![8, 9]];
        assert_eq!(scene_recovery_score(&disjoint, &truth), 0.0);
    }

    #[test]
    fn mines_generated_dataset_toward_ground_truth() {
        // On generated data the category-category layer carries co-view
        // evidence shaped by the true taxonomy; mining should beat a
        // random grouping by a wide margin.
        let data = generate(&GeneratorConfig::tiny(404)).unwrap();
        let co = CoOccurrence::from_scene_graph(&data.scene_graph);
        let mined = mine_scenes(
            &co,
            &MiningConfig {
                min_affinity: 0.1,
                ..MiningConfig::default()
            },
        );
        assert!(!mined.is_empty());
        let truth: Vec<Vec<u32>> = (0..data.scene_graph.num_scenes())
            .map(|s| {
                data.scene_graph
                    .categories_of_scene(scenerec_graph::SceneId(s))
                    .to_vec()
            })
            .collect();
        let mined_score = scene_recovery_score(&mined, &truth);
        // Random grouping of the same shape.
        let random: Vec<Vec<u32>> = (0..mined.len() as u32)
            .map(|s| {
                (0..4u32)
                    .map(|k| (s * 7 + k * 3) % data.scene_graph.num_categories())
                    .collect()
            })
            .collect();
        let random_score = scene_recovery_score(&random, &truth);
        assert!(
            mined_score > random_score,
            "mined {mined_score} vs random {random_score}"
        );
    }

    #[test]
    #[should_panic]
    fn record_out_of_range_panics() {
        let mut co = CoOccurrence::new(2);
        co.record(0, 5, 1.0);
    }
}
