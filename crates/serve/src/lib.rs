//! # scenerec-serve — tape-free batched inference serving
//!
//! Training-side scoring (`PairwiseModel::score_values`) rebuilds the
//! full Eq. 1–14 computation graph on an autodiff tape for every request.
//! That is the right tool for gradients and for small evaluation runs,
//! but at serving time the graph-structured parts of the model are pure
//! functions of the trained parameters. This crate consumes a
//! [`FrozenModel`](scenerec_core::FrozenModel) snapshot — per-entity
//! representations precomputed once on the tape — and serves top-K
//! requests through dense batched kernels instead.
//!
//! ## Pipeline
//!
//! ```text
//! checkpoint ──load──▶ SceneRec ──freeze()──▶ FrozenModel
//!                                                 │
//!                     ShardedEngine::new ◀────────┘
//!                        │  item shards, each with its own (user,k) LRU;
//!                        │  sparse seen-item bitmasks
//!                        ▼
//!    replay_sharded(requests, config) ──▶ responses (NDJSON)
//! ```
//!
//! ## Entry points
//!
//! One engine, [`ShardedEngine`], serves every deployment: one shard is
//! the whole catalog behind one cache, more shards partition it. One
//! replay path serves a request log: [`replay_sharded`] returns its
//! responses; [`replay_sharded_with`] takes the same log plus
//! [`ReplayOptions`] — fault injection and tracing, in any combination —
//! and returns a [`Replay`] (responses and traces). Each shard is pinned
//! to one worker of a supervised pool, so a replay keeps
//! `min(shards, workers)` workers busy.
//!
//! ## Invariants
//!
//! * **Parity**: engine scores are bit-identical to the tape
//!   (`tests/serving_parity.rs`), and `top_k` matches the training-side
//!   `top_k_for_user` including tie-breaks.
//! * **Determinism**: no wall-clock in any decision path (the LRU uses a
//!   logical stamp), all maps are ordered, and the scheduler gathers
//!   responses in request order — worker count never changes output
//!   bytes (`tests/determinism.rs`).
//! * **No panics in the serving path**: fallible APIs return
//!   [`ServeError`]; malformed requests become error responses.
//! * **Fault tolerance**: with [`ReplayOptions::injector`] armed, the
//!   pool recovers worker panics (supervised respawn, exactly-once
//!   responses), and shard outages retry a bounded number of times and
//!   degrade to the replay's bit-identical stale partials
//!   (`tests/chaos.rs`).
//! * **Sharding is invisible in the bytes**: a [`ShardedEngine`]
//!   range-partitions the catalog, scores shards independently, and
//!   merges with an exact scatter-gather — responses are bit-identical
//!   at every shard count, worker count, and precision; a shard outage
//!   with no stale partial degrades a response and names the missing
//!   ranges ([`Response::partial_shards`]) instead of silently
//!   truncating it (`tests/properties.rs`, `tests/chaos.rs`).

// Library crates stay entirely safe; tensor alone carries the SIMD
// intrinsics and documents each unsafe block (lint rule R2).
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod engine;
pub mod mask;
mod pool;
pub mod scheduler;
pub mod shard;
pub mod topk;

pub use cache::{CacheStats, ResultCache};
pub use engine::{EngineConfig, ServeError};
pub use mask::SeenMask;
pub use scenerec_faults::Backoff;
pub use scheduler::{
    latency_edges, replay_sharded, replay_sharded_with, responses_to_json, Replay, ReplayOptions,
    Request, Response, ShardReplayConfig,
};
pub use shard::{ShardPartial, ShardedConfig, ShardedEngine};
pub use topk::{merge_top_k, select_top_k};
