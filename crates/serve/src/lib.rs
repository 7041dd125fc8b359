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
//!                     FrozenEngine::new ◀─────────┘
//!                        │  seen-item bitmasks, (user,k) LRU cache
//!                        ▼
//!        scheduler::replay(requests, workers) ──▶ responses (NDJSON)
//! ```
//!
//! ## Entry points
//!
//! Four functions serve a log, two per engine: [`replay`] and
//! [`replay_sharded`] take a plain request log and return responses;
//! [`replay_with`] and [`replay_sharded_with`] take a timed arrival log
//! plus [`ReplayOptions`] — admission control, fault injection and
//! tracing, in any combination — and return a [`Replay`] (responses,
//! traces, admission plan). Both engines run on one supervised worker
//! pool.
//!
//! ## Invariants
//!
//! * **Parity**: engine scores are bit-identical to the tape
//!   (`tests/serving_parity.rs`), and `top_k` matches the training-side
//!   `top_k_for_user` including tie-breaks.
//! * **Determinism**: no wall-clock in any decision path (the LRU uses a
//!   logical stamp), all maps are ordered, and the scheduler reassembles
//!   responses by request index — worker count never changes output
//!   bytes (`tests/determinism.rs`).
//! * **No panics in the serving path**: fallible APIs return
//!   [`ServeError`]; malformed requests become error responses.
//! * **Fault tolerance**: with [`ReplayOptions::injector`] armed, the
//!   pool recovers worker panics (supervised respawn, exactly-once
//!   responses), engine outages retry with deterministic backoff and
//!   degrade to stale results, and injected latency is bounded by
//!   logical-tick deadlines (`tests/chaos.rs`).
//! * **Sharding is invisible in the bytes**: a [`shard::ShardedEngine`]
//!   range-partitions the catalog, scores shards independently, and
//!   merges with an exact scatter-gather — responses are bit-identical
//!   to the single engine at every shard count, worker count, and
//!   precision; a shard outage degrades a response and names the
//!   missing ranges ([`Response::partial_shards`]) instead of silently
//!   truncating it (`tests/properties.rs`, `tests/chaos.rs`).

// Library crates stay entirely safe; tensor alone carries the SIMD
// intrinsics and documents each unsafe block (lint rule R2).
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod admission;
pub mod cache;
pub mod engine;
pub mod mask;
mod pool;
pub mod scheduler;
pub mod shard;
pub mod topk;

pub use admission::{
    plan as admission_plan, AdmissionConfig, AdmissionPlan, Lane, OverloadInfo, TimedRequest,
    Verdict,
};
pub use cache::{CacheStats, ResultCache};
pub use engine::{EngineConfig, FrozenEngine, ServeError};
pub use mask::SeenMask;
pub use scenerec_faults::Backoff;
pub use scheduler::{
    latency_edges, replay, replay_with, responses_to_json, Replay, ReplayConfig, ReplayOptions,
    Request, Response,
};
pub use shard::{
    replay_sharded, replay_sharded_with, ShardPartial, ShardReplayConfig, ShardedConfig,
    ShardedEngine,
};
pub use topk::{merge_top_k, select_top_k};
