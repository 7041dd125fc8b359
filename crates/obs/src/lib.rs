//! # scenerec-obs
//!
//! The observability substrate for the SceneRec workspace: span trees
//! that time everything, a flight recorder for post-mortems and
//! machine-readable run manifests. Training, evaluation, serving and
//! the bench binaries report through this crate, so perf PRs can claim
//! measured wins and every `results/*` file is traceable to the run
//! that produced it.
//!
//! Design constraints:
//!
//! * **Zero heavy dependencies** — std plus the workspace serde stubs.
//! * **Negligible hot-path overhead** — spans open at request, epoch and
//!   phase granularity; per-sample costs are accumulated locally by the
//!   caller with a [`Stopwatch`] and recorded once per epoch.
//! * **Thread-safe** — a [`Trace`] is single-owner and takes no lock at
//!   all; the flight recorder's rings are per thread.
//!
//! The three records:
//!
//! 1. [`trace`] — causal span trees with logical-tick and wall
//!    timestamps: one per serve request, one per training run, one per
//!    bench set-up. They export as Chrome trace-event JSON
//!    ([`chrome_trace_json`]) loadable in Perfetto, and aggregate per
//!    span name into wall-time totals ([`trace::timings`]). Span fields
//!    carry what a counter would: a served shard's `hit`, `stale` and
//!    `error`, for one.
//! 2. [`flight`] — a bounded per-thread ring-buffer flight recorder;
//!    the serve supervisor prints its dump when a worker panics.
//! 3. [`RunManifest`] — a run's span timings, git revision and
//!    [`HostInfo`], written next to its result file.
//!
//! Besides them, [`metrics`] keeps named fixed-bucket histograms. One
//! has a reader: the serving pool's `serve/latency_ns`, whose
//! quantiles the `serve` bench binary reports.
//! [`Stopwatch`] and [`monotonic_ns`] are the workspace's only clocks.

// Library crates stay entirely safe; tensor alone carries the SIMD
// intrinsics and documents each unsafe block (lint rule R2).
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

mod clock;
pub mod flight;
mod manifest;
pub mod metrics;
mod sync;
pub mod trace;

pub use clock::{monotonic_ns, Stopwatch};
pub use manifest::{git_revision, HostInfo, RunManifest};
pub use metrics::{log_edges, reset_metrics};
pub use sync::lock_unpoisoned;
pub use trace::{
    chrome_trace_json, structure_digest, structure_text, FieldValue, SpanId, SpanRecord,
    SpanTiming, Trace, TraceData, TraceId,
};
