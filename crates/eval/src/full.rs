//! Full-ranking evaluation: rank each held-out positive against the
//! **entire catalog** (minus the user's known positives) instead of 100
//! sampled negatives.
//!
//! Sampled-negative protocols (the paper's §5.3 choice) are known to be
//! biased estimators of full-ranking metrics (Krichene & Rendle, KDD
//! 2020); production evaluations prefer the full ranking. Both protocols
//! are provided so users can quantify the gap on their data.

use crate::ranking::{rank_all, EvalSummary, Scorer};
use scenerec_graph::{ItemId, UserId};
use std::collections::HashSet;

/// One full-ranking instance: the held-out positive plus the user's
/// exclusion set (training positives that must not compete).
#[derive(Debug, Clone)]
pub struct FullRankingInstance {
    /// The evaluated user.
    pub user: UserId,
    /// The held-out positive item.
    pub positive: ItemId,
    /// Items excluded from the candidate set (the user's other known
    /// positives). The held-out positive itself must not be in here.
    pub exclude: HashSet<u32>,
}

/// Evaluates `scorer` under full ranking at cutoff `k` over `num_items`
/// catalog items, fanning instances out over `threads` workers.
pub fn evaluate_full_ranking(
    scorer: &(dyn Scorer + Sync),
    instances: &[FullRankingInstance],
    num_items: u32,
    k: usize,
    threads: usize,
) -> EvalSummary {
    let ranks = rank_all(instances, threads, |inst| {
        rank_one_full(scorer, inst, num_items)
    });
    EvalSummary::from_ranks(ranks, k)
}

fn rank_one_full(scorer: &dyn Scorer, inst: &FullRankingInstance, num_items: u32) -> usize {
    const CHUNK: usize = 512;
    debug_assert!(!inst.exclude.contains(&inst.positive.raw()));
    // Score the positive first, then stream the catalog in chunks.
    let pos_score = scorer.score_items(inst.user, &[inst.positive])[0];
    let mut rank = 0usize;
    let candidates: Vec<ItemId> = (0..num_items)
        .filter(|i| *i != inst.positive.raw() && !inst.exclude.contains(i))
        .map(ItemId)
        .collect();
    for chunk in candidates.chunks(CHUNK) {
        let scores = scorer.score_items(inst.user, chunk);
        rank += scores.iter().filter(|&&s| s >= pos_score).count();
    }
    rank
}

/// Builds full-ranking instances from a leave-one-out split: test
/// positives, excluding each user's other known interactions.
pub fn instances_from_split(
    split: &scenerec_data::LeaveOneOutSplit,
    interactions: &scenerec_graph::BipartiteGraph,
) -> Vec<FullRankingInstance> {
    split
        .test
        .iter()
        .map(|inst| {
            let mut exclude: HashSet<u32> =
                interactions.items_of(inst.user).iter().copied().collect();
            exclude.remove(&inst.positive.raw());
            FullRankingInstance {
                user: inst.user,
                positive: inst.positive,
                exclude,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scorer preferring small item indices.
    fn inverse_index_scorer() -> impl Scorer {
        |_u: UserId, items: &[ItemId]| -> Vec<f32> {
            items.iter().map(|i| -(i.raw() as f32)).collect()
        }
    }

    #[test]
    fn full_rank_counts_whole_catalog() {
        let s = inverse_index_scorer();
        // Catalog 0..10; positive = 4; nothing excluded => items 0..3 beat
        // it => rank 4.
        let inst = FullRankingInstance {
            user: UserId(0),
            positive: ItemId(4),
            exclude: HashSet::new(),
        };
        let summary = evaluate_full_ranking(&s, &[inst], 10, 5, 1);
        assert_eq!(summary.ranks, vec![4]);
        assert_eq!(summary.metrics.hr, 1.0); // rank 4 < k 5
    }

    #[test]
    fn exclusion_removes_competitors() {
        let s = inverse_index_scorer();
        let inst = FullRankingInstance {
            user: UserId(0),
            positive: ItemId(4),
            exclude: [0u32, 1, 2].into_iter().collect(),
        };
        let summary = evaluate_full_ranking(&s, &[inst], 10, 5, 1);
        assert_eq!(summary.ranks, vec![1]); // only item 3 remains ahead
    }

    #[test]
    fn parallel_matches_serial() {
        let s = inverse_index_scorer();
        let instances: Vec<FullRankingInstance> = (0..7)
            .map(|u| FullRankingInstance {
                user: UserId(u),
                positive: ItemId(u % 5),
                exclude: HashSet::new(),
            })
            .collect();
        let serial = evaluate_full_ranking(&s, &instances, 20, 10, 1);
        for threads in [2, 4] {
            let par = evaluate_full_ranking(&s, &instances, 20, 10, threads);
            assert_eq!(par.ranks, serial.ranks);
        }
    }

    #[test]
    fn instances_from_split_excludes_other_positives() {
        use scenerec_data::{generate, GeneratorConfig};
        let data = generate(&GeneratorConfig::tiny(88)).unwrap();
        let instances = instances_from_split(&data.split, &data.interactions);
        assert_eq!(instances.len(), data.split.test.len());
        for inst in &instances {
            assert!(!inst.exclude.contains(&inst.positive.raw()));
            // Every training positive of the user is excluded.
            for &i in data.train_graph.items_of(inst.user) {
                assert!(inst.exclude.contains(&i));
            }
        }
    }

    #[test]
    fn full_ranking_is_harder_than_sampled() {
        use crate::ranking::evaluate;
        use scenerec_data::{generate, GeneratorConfig};
        let data = generate(&GeneratorConfig::tiny(89)).unwrap();
        let s = inverse_index_scorer();
        let sampled = evaluate(&s, &data.split.test, 10, 1);
        let full = evaluate_full_ranking(
            &s,
            &instances_from_split(&data.split, &data.interactions),
            data.num_items(),
            10,
            1,
        );
        // More competitors can only push the positive down.
        assert!(full.metrics.hr <= sampled.metrics.hr + 1e-6);
    }
}
