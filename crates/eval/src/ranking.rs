//! The leave-one-out ranking evaluator.

use crate::metrics::{rank_of_positive, MetricSet};
use scenerec_data::EvalInstance;
use scenerec_graph::{ItemId, UserId};
use serde::{Deserialize, Serialize};

/// Anything that can score `(user, item)` pairs.
///
/// `score_items` scores one user against a candidate list; implementations
/// are expected to be deterministic and pure (evaluation may run them from
/// multiple threads).
pub trait Scorer: Sync {
    /// Preference scores for `user` against each candidate, higher = more
    /// preferred. Must return exactly `items.len()` scores.
    fn score_items(&self, user: UserId, items: &[ItemId]) -> Vec<f32>;
}

impl<F> Scorer for F
where
    F: Fn(UserId, &[ItemId]) -> Vec<f32> + Sync,
{
    fn score_items(&self, user: UserId, items: &[ItemId]) -> Vec<f32> {
        self(user, items)
    }
}

/// Evaluation outcome over a set of instances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalSummary {
    /// Aggregated metrics at the requested cutoff.
    pub metrics: MetricSet,
    /// Per-instance rank of the positive (aligned with the input order).
    pub ranks: Vec<usize>,
    /// Number of evaluated instances.
    pub num_instances: usize,
}

impl EvalSummary {
    pub(crate) fn from_ranks(ranks: Vec<usize>, k: usize) -> Self {
        let metrics = MetricSet::from_ranks(&ranks, k);
        EvalSummary {
            metrics,
            num_instances: ranks.len(),
            ranks,
        }
    }
}

/// Evaluates `scorer` on `instances` at cutoff `k`, fanning users out over
/// `threads` scoped threads via [`scenerec_tensor::par`] (clamped to at
/// least 1). Results are identical at every thread count: each
/// instance's rank is computed independently and written into its own
/// slot.
pub fn evaluate(
    scorer: &(dyn Scorer + Sync),
    instances: &[EvalInstance],
    k: usize,
    threads: usize,
) -> EvalSummary {
    let ranks = rank_all(instances, threads, |inst| rank_one(scorer, inst));
    EvalSummary::from_ranks(ranks, k)
}

/// Ranks every instance with `rank`, in contiguous chunks, one per
/// thread, on up to `threads` scoped threads (at least 1); a single
/// chunk runs on the calling thread. Each rank lands in its instance's
/// slot, so the result does not depend on `threads`.
pub(crate) fn rank_all<T: Sync>(
    instances: &[T],
    threads: usize,
    rank: impl Fn(&T) -> usize + Sync,
) -> Vec<usize> {
    let threads = threads.max(1).min(instances.len().max(1));
    let chunk = instances.len().div_ceil(threads);
    let mut ranks = vec![0usize; instances.len()];
    scenerec_tensor::par::for_each_chunk_pair(
        &mut ranks,
        chunk,
        instances,
        chunk,
        |_, slot, part| {
            for (r, inst) in slot.iter_mut().zip(part) {
                *r = rank(inst);
            }
        },
    );
    ranks
}

fn rank_one(scorer: &dyn Scorer, inst: &EvalInstance) -> usize {
    let candidates = inst.candidates();
    let scores = scorer.score_items(inst.user, &candidates);
    assert_eq!(
        scores.len(),
        candidates.len(),
        "scorer returned wrong number of scores"
    );
    rank_of_positive(scores[0], &scores[1..])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scorer that prefers items with smaller raw index.
    fn inverse_index_scorer() -> impl Scorer {
        |_u: UserId, items: &[ItemId]| -> Vec<f32> {
            items.iter().map(|i| -(i.raw() as f32)).collect()
        }
    }

    fn instances() -> Vec<EvalInstance> {
        vec![
            // positive 0 beats negatives 5, 9 -> rank 0
            EvalInstance {
                user: UserId(0),
                positive: ItemId(0),
                negatives: vec![ItemId(5), ItemId(9)],
            },
            // positive 7 loses to 1, 2 -> rank 2
            EvalInstance {
                user: UserId(1),
                positive: ItemId(7),
                negatives: vec![ItemId(1), ItemId(2)],
            },
            // positive 3 beats 8, loses to 1 -> rank 1
            EvalInstance {
                user: UserId(2),
                positive: ItemId(3),
                negatives: vec![ItemId(8), ItemId(1)],
            },
        ]
    }

    #[test]
    fn serial_ranks_are_correct() {
        let s = inverse_index_scorer();
        let summary = evaluate(&s, &instances(), 2, 1);
        assert_eq!(summary.ranks, vec![0, 2, 1]);
        assert_eq!(summary.num_instances, 3);
        // HR@2: ranks 0 and 1 hit -> 2/3.
        assert!((summary.metrics.hr - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_matches_serial() {
        let s = inverse_index_scorer();
        let insts = instances();
        let serial = evaluate(&s, &insts, 2, 1);
        for threads in [2, 3, 8] {
            let par = evaluate(&s, &insts, 2, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_instances() {
        let s = inverse_index_scorer();
        let summary = evaluate(&s, &[], 10, 4);
        assert_eq!(summary.num_instances, 0);
        assert_eq!(summary.metrics.hr, 0.0);
    }

    #[test]
    fn perfect_scorer_gets_perfect_metrics() {
        // Scores the positive (index 0 in candidates) highest by marking it.
        struct Oracle;
        impl Scorer for Oracle {
            fn score_items(&self, _u: UserId, items: &[ItemId]) -> Vec<f32> {
                // The first candidate is the positive by construction.
                (0..items.len())
                    .map(|i| if i == 0 { 1.0 } else { 0.0 })
                    .collect()
            }
        }
        let summary = evaluate(&Oracle, &instances(), 10, 2);
        assert_eq!(summary.metrics.hr, 1.0);
        assert_eq!(summary.metrics.ndcg, 1.0);
        assert_eq!(summary.metrics.mrr, 1.0);
    }

    #[test]
    fn constant_scorer_scores_zero() {
        // Pessimistic tie-breaking sends the positive to the bottom.
        let s = |_u: UserId, items: &[ItemId]| vec![0.5; items.len()];
        let summary = evaluate(&s, &instances(), 2, 1);
        assert_eq!(summary.metrics.hr, 0.0);
        assert_eq!(summary.metrics.ndcg, 0.0);
    }

    #[test]
    #[should_panic(expected = "wrong number of scores")]
    fn wrong_score_count_panics() {
        let s = |_u: UserId, _items: &[ItemId]| vec![1.0];
        let _ = evaluate(&s, &instances(), 2, 1);
    }
}
