//! # scenerec-eval
//!
//! Ranking metrics and the leave-one-out evaluator of §5.3.
//!
//! The protocol: for each user, one held-out positive is ranked against 100
//! sampled negatives; *Hit Ratio* (HR@K) checks whether the positive lands
//! in the top K, *NDCG@K* additionally rewards higher positions with
//! `1 / log2(rank + 2)`. The paper reports the average over users at
//! K = 10.
//!
//! [`Scorer`] is the single integration point: every model (SceneRec, its
//! variants and all six baselines) implements it, and
//! [`ranking::evaluate`] runs the protocol — in parallel across users via
//! the shared `scenerec_tensor::par` scoped-thread helpers.

// Library crates stay entirely safe; tensor alone carries the SIMD
// intrinsics and documents each unsafe block (lint rule R2).
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod full;
pub mod metrics;
pub mod ranking;
pub mod significance;

pub use full::{evaluate_full_ranking, instances_from_split, FullRankingInstance};
pub use metrics::{hit_at_k, ndcg_at_k, rank_of_positive, reciprocal_rank, MetricSet};
pub use ranking::{evaluate, EvalSummary, Scorer};
