//! # scenerec-obs
//!
//! The observability substrate for the SceneRec workspace: span trees
//! that time everything, a process-wide metrics registry, a flight
//! recorder for post-mortems and machine-readable run manifests. Every
//! training/eval/bench hot path reports through this crate, so perf PRs
//! can claim measured wins and every `results/*` file is traceable to
//! the run that produced it.
//!
//! Design constraints:
//!
//! * **Zero heavy dependencies** — std plus the workspace serde stubs.
//! * **Negligible hot-path overhead** — spans open at request, epoch and
//!   phase granularity; per-sample costs are accumulated locally by the
//!   caller with a [`Stopwatch`] and recorded once per epoch.
//! * **Thread-safe** — counters/gauges/histograms are lock-free atomics;
//!   a [`Trace`] is single-owner and takes no lock at all.
//!
//! The three records:
//!
//! 1. [`trace`] — causal span trees with logical-tick and wall
//!    timestamps: one per serve request, one per training run, one per
//!    bench set-up. They export as Chrome trace-event JSON
//!    ([`chrome_trace_json`]) loadable in Perfetto, and aggregate per
//!    span name into wall-time totals ([`trace::timings`]).
//! 2. [`metrics`] — named counters, gauges and fixed-bucket histograms.
//! 3. [`flight`] — a bounded per-thread ring-buffer flight recorder;
//!    the serve supervisor prints its dump when a worker panics.
//!
//! [`RunManifest`] snapshots a run's span timings and the metrics
//! registry (plus git revision and [`HostInfo`]) next to a result file.
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
pub use metrics::{log_edges, metrics_snapshot, reset_metrics, MetricsSnapshot};
pub use sync::lock_unpoisoned;
pub use trace::{
    chrome_trace_json, structure_digest, structure_text, FieldValue, SpanId, SpanRecord,
    SpanTiming, Trace, TraceData, TraceId,
};
