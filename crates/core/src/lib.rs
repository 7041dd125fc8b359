//! # scenerec-core
//!
//! The SceneRec model (EDBT 2021), its three published ablation variants,
//! and the pairwise BPR training loop — the primary contribution of the
//! paper this repository reproduces.
//!
//! ## Model summary (§4 of the paper)
//!
//! SceneRec scores a user-item pair from two information sources:
//!
//! * **User-based space** — classic collaborative signals from the
//!   user-item bipartite graph: the user representation aggregates the
//!   embeddings of interacted items (Eq. 1); the item's user-based
//!   representation aggregates the embeddings of engaged users (Eq. 2).
//! * **Scene-based space** — the item's *scene-specific* representation is
//!   propagated down the scene-based graph: scene embeddings sum into
//!   categories (Eq. 3); categories attend over related categories with a
//!   **scene-based attention** whose scores are cosine similarities of
//!   scene-embedding sums (Eqs. 4–6); each item inherits its category's
//!   fused representation (Eqs. 7–8) and attends over co-view item
//!   neighbors with the same scene-based attention (Eqs. 9–11), fused by
//!   Eq. 12.
//!
//! The two item representations are merged by an MLP (Eq. 13) and scored
//! against the user by a second MLP (Eq. 14), trained with pairwise BPR
//! (Eq. 15) under RMSProp.
//!
//! ## Variants (§5.2)
//!
//! * [`Variant::NoItem`] — drops the item-item subnetwork from the
//!   scene-based graph.
//! * [`Variant::NoScene`] — drops the category and scene layers, keeping
//!   only item-item relations (with uniform aggregation, since the
//!   scene-based attention is undefined without scenes).
//! * [`Variant::NoAttention`] — replaces both attention mechanisms with
//!   uniform averaging.
//!
//! ## Crate layout
//!
//! * [`api`] — the [`api::PairwiseModel`] abstraction shared with every
//!   baseline, and the [`api::ModelScorer`] adapter into the evaluation
//!   harness.
//! * [`model`] — the SceneRec network.
//! * [`trainer`] — BPR sampling, epochs, early stopping.
//! * [`case_study`] — the Figure 3 attention/prediction probe.
//! * [`tuning`] — the §5.3 grid search (learning rate × λ).

// Library crates stay entirely safe; tensor alone carries the SIMD
// intrinsics and documents each unsafe block (lint rule R2).
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod api;
pub mod case_study;
pub mod checkpoint;
pub mod config;
pub mod freeze;
pub mod model;
pub mod recommend;
pub mod trainer;
pub mod tuning;

pub use api::{ModelScorer, PairwiseModel};
pub use config::{NeighborCaps, SceneRecConfig, Variant};
pub use freeze::{
    EntityMatrix, FrozenHead, FrozenLayer, FrozenModel, FrozenSnapshot, ItemSide, Precision,
    ShardMap,
};
pub use model::SceneRec;
pub use recommend::{top_k_for_user, top_k_unseen, Recommendation};
pub use trainer::{train, train_traced, TrainConfig, TrainReport};
