//! # scenerec-data
//!
//! Synthetic JD-style dataset construction, train/validation/test splitting
//! and Table-1 statistics.
//!
//! The paper evaluates on four proprietary JD.com datasets (Table 1) built
//! from click logs, co-view sessions and an expert-curated scene taxonomy.
//! Those datasets are not public, so this crate implements the closest
//! synthetic equivalent (see DESIGN.md §1):
//!
//! * a **scene taxonomy** generator — scenes as overlapping sets of
//!   categories, mirroring the scene/category/membership counts of Table 1;
//! * a **behavior simulator** — each user draws interactions from a mixture
//!   of (a) *scene-coherent* choices driven by the user's preferred scenes,
//!   (b) *taste-cluster* choices driven by latent category preferences, and
//!   (c) popularity noise. Component (a) plants exactly the signal SceneRec
//!   is designed to exploit; component (b) supplies the collaborative
//!   signal every baseline can learn; (c) adds realism;
//! * a **session simulator** producing the co-view item-item graph
//!   (top-K pruned, like the paper's top-300) and the category-category
//!   relevance graph (top-K + taxonomy-consistency labeling, standing in
//!   for the paper's manual labeling step);
//! * the paper's **leave-one-out protocol** (§5.3): per user, one held-out
//!   validation positive and one test positive, each ranked against 100
//!   sampled negatives.
//!
//! Four presets mirror the shape of the paper's datasets at several scales.

// Library crates stay entirely safe; tensor alone carries the SIMD
// intrinsics and documents each unsafe block (lint rule R2).
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod dataset;
pub mod generator;
pub mod mining;
pub mod popularity;
pub mod presets;
pub mod split;
pub mod taxonomy;

pub use config::GeneratorConfig;
pub use dataset::Dataset;
pub use generator::generate;
pub use presets::{DatasetProfile, FrozenSynthesisSpec, Scale};
pub use split::{EvalInstance, LeaveOneOutSplit};
pub use taxonomy::Taxonomy;
