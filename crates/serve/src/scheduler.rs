//! The replay entry points: scatter, gather.
//!
//! [`replay_sharded`] serves a plain request log through a
//! [`ShardedEngine`]; [`replay_sharded_with`] serves the same log under
//! [`ReplayOptions`] — fault injection and causal tracing, in any
//! combination — and returns a [`Replay`]. A one-shard engine is the
//! single-engine deployment; there is no other serving path. A replay
//! runs in two steps:
//!
//! 1. **Scatter** (`crate::pool`) serves every (request, shard) cell on
//!    supervised workers, each shard pinned to one of them.
//! 2. **Gather** runs on the calling thread, in request order, walking
//!    shards in index order: it merges each request's cells with
//!    [`merge_top_k`] into its response and records its spans.
//!
//! Responses come back **in request order**, and each shard's cells run
//! FIFO on one owner worker, so response bytes, cache stats and trace
//! structure are identical at any worker count (pinned by
//! `tests/determinism.rs` and `tests/serving_parity.rs`).
//!
//! ## Failure handling
//!
//! The [`ReplayOptions::injector`] drives two recovery paths, both on
//! **logical ticks** — no wall clocks, so every outcome is reproducible
//! from the fault plan:
//!
//! * **Worker panics** (`serve/shard_worker`): the pool requeues the
//!   dead worker's task at the front of its own queue (bounded by
//!   [`ShardReplayConfig::max_retries`], then error cells) and respawns
//!   a replacement — every request is answered exactly once, never
//!   lost, never duplicated.
//! * **Shard outages** (`serve/shard/{s}`): a failed attempt is retried
//!   at once, up to [`ShardReplayConfig::max_retries`] times;
//!   exhausted retries answer from the replay's last good partial for
//!   that (shard, user, k). Such a response is flagged `degraded` but
//!   complete and bit-identical to a fresh one. Only a shard with no
//!   stale partial is named in [`Response::partial_shards`] — an outage
//!   never silently truncates a top-K — and when every shard fails the
//!   response is a typed error.
//!
//! What happened to a cell is recorded where it is read: on its
//! request's `serve.shard` span when the replay is traced (below), in
//! [`Response::degraded`] and [`Response::partial_shards`] when a shard
//! was down, and in each shard's lifetime cache hits and misses
//! ([`ShardedEngine::shard_cache_stats`]). The pool also observes each
//! cell's wall time into the `serve/latency_ns` histogram, which the
//! `serve` bench binary reads (`crate::pool`).
//!
//! ## Causal tracing
//!
//! With [`ReplayOptions::trace`] set, every request records one span
//! tree (`serve.request` → `serve.queue` / `serve.batch` → one
//! `serve.shard` per shard, then `serve.merge`) with logical-tick
//! timestamps, so span *structure* is as deterministic as the response
//! bytes. A shard span carries `shard` and `hit`; on a miss also
//! `candidates`, `backend` and `precision`; a stale answer carries
//! `stale`, a failed shard `error`. Workers log every task claim into
//! the `scenerec_obs::flight` ring recorder, and the pool prints a
//! full flight dump with the warning it writes to stderr when it reaps
//! a panicked worker.

use crate::pool::{self, Cell};
use crate::shard::ShardedEngine;
use crate::topk::merge_top_k;
use scenerec_core::Recommendation;
use scenerec_faults::Injector;
use scenerec_obs::{metrics, FieldValue, Trace, TraceData};
use scenerec_tensor::backend_name;

/// One inference request: top-`k` unseen items for `user`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The requesting user id.
    pub user: u32,
    /// How many recommendations to return.
    pub k: usize,
}

/// One served response, in the same position as its request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The requesting user id.
    pub user: u32,
    /// The requested k.
    pub k: usize,
    /// Ranked recommendations (empty when `error` is set).
    pub recs: Vec<Recommendation>,
    /// Human-readable failure, e.g. an out-of-range user id.
    pub error: Option<String>,
    /// Whether a shard outage touched this response: some shard answered
    /// from the replay's stale partials (bit-identical to fresh ones —
    /// the engine is pure — but the flag is surfaced so clients can
    /// tell), or is missing altogether (see `partial_shards`).
    pub degraded: bool,
    /// Shards whose partial results are **missing** from `recs`. A
    /// shard outage never silently truncates a top-K: the response is
    /// flagged `degraded` and names exactly which item ranges went
    /// unscored, in ascending shard order. A shard answered from a
    /// stale partial is not listed — its items are present.
    pub partial_shards: Vec<u32>,
    /// Always `None`: the type is uninhabited, so no code path can set
    /// it. It exists only so that the repository benchmark (`perfbench`),
    /// which writes `overload: None` in a `Response` literal, keeps
    /// building; the field and that literal go together when the
    /// benchmark is next revised.
    pub overload: Option<std::convert::Infallible>,
}

impl Response {
    /// A served response carrying `recs`.
    pub(crate) fn ok(req: &Request, recs: Vec<Recommendation>) -> Self {
        Response {
            user: req.user,
            k: req.k,
            recs,
            error: None,
            degraded: false,
            partial_shards: Vec::new(),
            overload: None,
        }
    }

    /// A typed failure with no recommendations.
    pub(crate) fn error(req: &Request, error: String) -> Self {
        Response {
            error: Some(error),
            ..Response::ok(req, Vec::new())
        }
    }

    /// Renders the response as one compact JSON object.
    ///
    /// Scores use Rust's shortest-round-trip `f32` formatting, so equal
    /// bit patterns always render to equal bytes — the determinism tests
    /// compare this rendering across worker counts.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(32 + self.recs.len() * 24);
        s.push_str("{\"user\":");
        s.push_str(&self.user.to_string());
        s.push_str(",\"k\":");
        s.push_str(&self.k.to_string());
        s.push_str(",\"recs\":[");
        for (i, r) in self.recs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"item\":");
            s.push_str(&r.item.raw().to_string());
            s.push_str(",\"score\":");
            s.push_str(&r.score.to_string());
            s.push('}');
        }
        s.push(']');
        if let Some(e) = &self.error {
            s.push_str(",\"error\":");
            s.push_str(&format!("{e:?}"));
        }
        if self.degraded {
            s.push_str(",\"degraded\":true");
        }
        if !self.partial_shards.is_empty() {
            s.push_str(",\"partial_shards\":[");
            for (i, shard) in self.partial_shards.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&shard.to_string());
            }
            s.push(']');
        }
        s.push('}');
        s
    }

    /// Coarse outcome classification, for accounting and tests:
    /// `"error"`, `"degraded"` (a shard outage), or `"ok"`.
    pub fn outcome(&self) -> &'static str {
        if self.error.is_some() {
            "error"
        } else if self.degraded {
            "degraded"
        } else {
            "ok"
        }
    }
}

/// Renders a response stream as newline-delimited JSON.
pub fn responses_to_json(responses: &[Response]) -> String {
    let mut s = String::new();
    for r in responses {
        s.push_str(&r.to_json());
        s.push('\n');
    }
    s
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct ShardReplayConfig {
    /// Worker threads (>= 1). Shard `s` is owned by worker
    /// `s % workers`, so worker count changes neither bytes nor trace
    /// structure — and a replay keeps `min(shards, workers)` workers
    /// busy. A caller that wants W busy workers on one catalog builds
    /// at least W shards; the bytes are the same at any shard count.
    pub workers: usize,
    /// Requests per micro-batch (>= 1). Each batch becomes one task
    /// per shard, which ranks the batch's misses in one walk over the
    /// shard's rows, scoring each tile for four misses at a time: larger
    /// batches read each tile of rows once for more requests, and a
    /// batch of at least four misses lets a dot head over f32 rows load
    /// each 8-row block once per group of four (on AVX-512 CPUs).
    pub max_batch: usize,
    /// Bounded retries: per (request, shard) cell when the shard is
    /// unavailable, and per task when its worker panics.
    pub max_retries: u32,
}

impl Default for ShardReplayConfig {
    fn default() -> Self {
        ShardReplayConfig {
            workers: 1,
            max_batch: 64,
            max_retries: 2,
        }
    }
}

/// What a replay may do besides serving ([`replay_sharded_with`]). The
/// default is a plain replay: no faults, no traces.
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// Fault injection; the disabled injector makes every probe a no-op.
    pub injector: Injector,
    /// Record one [`TraceData`] per request ([`Replay::traces`]).
    pub trace: bool,
}

/// The outcome of [`replay_sharded_with`].
#[derive(Debug)]
pub struct Replay {
    /// One response per request, in request order.
    pub responses: Vec<Response>,
    /// One trace per request (`trace_id` = request index) when
    /// [`ReplayOptions::trace`] is set, else empty.
    pub traces: Vec<TraceData>,
}

/// Bucket edges for the `serve/latency_ns` histogram (one observation
/// per (request, shard) cell, excluding its task's prefetch), in
/// nanoseconds: log-spaced at 6 buckets
/// per decade over 1 µs .. 10 s. Serving latency is
/// heavy-tailed; log spacing keeps the relative quantile error roughly
/// constant all the way into the p999 tail, where the old 1–3–10
/// edges collapsed whole decades into two buckets.
pub fn latency_edges() -> Vec<f64> {
    metrics::log_edges(1e3, 1e10, 6)
}

/// Replays a request log through a [`ShardedEngine`] and returns
/// responses in request order — byte-identical at any shard count and
/// any worker count. Failures (e.g. unknown users) become error
/// responses instead of tearing down the batch.
pub fn replay_sharded(
    engine: &ShardedEngine,
    requests: &[Request],
    config: &ShardReplayConfig,
) -> Vec<Response> {
    replay_sharded_with(engine, requests, config, &ReplayOptions::default()).responses
}

/// Replays a request log through a [`ShardedEngine`] under `options`:
/// fault injection and tracing, in any combination.
///
/// The invariant `tests/chaos.rs` pins: **every request gets exactly one
/// response, in request order, at any worker count, under any fault
/// plan** — a fault can change a response's content (error, degraded)
/// but never lose or duplicate one.
///
/// Traces: one [`TraceData`] per request, opened on the calling thread
/// before any worker runs, so each `serve.queue` span covers the
/// request's wait through the scatter. The gather completes every tree
/// in deterministic shard order, so span *structure* — ids, parentage,
/// logical ticks — is identical at any worker count (pinned via
/// `structure_digest` in `tests/serving_parity.rs`).
pub fn replay_sharded_with(
    engine: &ShardedEngine,
    requests: &[Request],
    config: &ShardReplayConfig,
    options: &ReplayOptions,
) -> Replay {
    let max_batch = config.max_batch.max(1);
    let num_shards = engine.num_shards();
    let precision = engine.precision().name();
    let mut traces = if options.trace {
        open_traces(requests)
    } else {
        Vec::new()
    };
    let cells = pool::scatter(engine, requests, config, &options.injector);

    // Gather single-threaded, in request order, walking shards in index
    // order — which is what makes trace structure trivially worker-count
    // invariant.
    let mut responses = Vec::with_capacity(requests.len());
    let mut cells = cells.into_iter();
    for (idx, req) in requests.iter().enumerate() {
        let (response, infos) = gather(req, cells.by_ref().take(num_shards));
        if let Some(t) = traces.get_mut(idx) {
            let batch_start = idx - idx % max_batch;
            let batch_end = (batch_start + max_batch).min(requests.len());
            let batch = (batch_start, batch_end);
            trace_gather(t, batch, &infos, precision, response.recs.len());
        }
        responses.push(response);
    }
    // `Trace::finish` touches the obs span registry, so traces close
    // here, owned, never under a lock.
    let traces = traces.into_iter().map(Trace::finish).collect();
    Replay { responses, traces }
}

/// Opens every request's trace: the `serve.request` root and its
/// `serve.queue` span, left open for the gather to close. This runs on
/// the calling thread, in request order, before any worker exists, so
/// none of these ticks can depend on worker interleaving.
fn open_traces(requests: &[Request]) -> Vec<Trace> {
    requests
        .iter()
        .enumerate()
        .map(|(idx, req)| {
            let mut t = Trace::new(idx as u64);
            let root = t.start_span("serve.request");
            t.add_field(root, "user", FieldValue::Int(req.user as i64));
            t.add_field(root, "k", FieldValue::Int(req.k as i64));
            t.start_span("serve.queue");
            t
        })
        .collect()
}

/// One request's shard outcome for its trace.
enum ShardInfo {
    /// Served by the shard: from its cache, or `candidates` scored.
    Served { hit: bool, candidates: usize },
    /// Answered from the replay's stale partial.
    Stale,
    /// Missing from the response.
    Failed(String),
}

/// Merges one request's shard cells into its response.
fn gather(req: &Request, row: impl Iterator<Item = Option<Cell>>) -> (Response, Vec<ShardInfo>) {
    let mut partials: Vec<Vec<Recommendation>> = Vec::new();
    let mut infos: Vec<ShardInfo> = Vec::new();
    let mut missing: Vec<u32> = Vec::new();
    let mut first_err: Option<String> = None;
    for (s, cell) in row.enumerate() {
        // Defensive: supervision guarantees every cell is filled; an
        // empty one is answered, not ignored.
        match cell.unwrap_or_else(|| Cell::Failed(format!("shard {s} response missing"))) {
            Cell::Served(p) => {
                infos.push(ShardInfo::Served {
                    hit: p.hit,
                    candidates: p.candidates,
                });
                partials.push(p.recs);
            }
            Cell::Stale(recs) => {
                infos.push(ShardInfo::Stale);
                partials.push(recs);
            }
            Cell::Failed(e) => {
                first_err.get_or_insert_with(|| e.clone());
                infos.push(ShardInfo::Failed(e));
                missing.push(s as u32);
            }
        }
    }
    if partials.is_empty() {
        // Every shard failed (e.g. an out-of-range user): surface the
        // lowest shard's error as the request-level error.
        let error = first_err.unwrap_or_else(|| "no shards".to_owned());
        return (Response::error(req, error), infos);
    }
    let degraded = !missing.is_empty() || infos.iter().any(|i| matches!(i, ShardInfo::Stale));
    // A lone partial is already ranked and at most k long: it is its own
    // merge, so a one-shard engine skips re-selecting it.
    let recs = if partials.len() == 1 {
        partials.swap_remove(0)
    } else {
        merge_top_k(&partials, req.k)
    };
    let response = Response {
        degraded,
        partial_shards: missing,
        ..Response::ok(req, recs)
    };
    (response, infos)
}

/// Closes a request's open `serve.queue` span and records the batch,
/// one `serve.shard` span per shard, and the merge.
fn trace_gather(
    t: &mut Trace,
    (start, end): (usize, usize),
    infos: &[ShardInfo],
    precision: &str,
    merged: usize,
) {
    t.end_top(); // serve.queue: the wait is over
    let b = t.start_span("serve.batch");
    t.add_field(b, "batch_start", FieldValue::Int(start as i64));
    t.add_field(b, "batch_end", FieldValue::Int(end as i64));
    for (s, info) in infos.iter().enumerate() {
        let sp = t.start_span("serve.shard");
        t.add_field(sp, "shard", FieldValue::Int(s as i64));
        match info {
            ShardInfo::Served { hit, candidates } => {
                t.add_field(sp, "hit", FieldValue::Bool(*hit));
                if !hit {
                    t.add_field(sp, "candidates", FieldValue::Int(*candidates as i64));
                    t.add_field(sp, "backend", FieldValue::Str(backend_name().to_owned()));
                    t.add_field(sp, "precision", FieldValue::Str(precision.to_owned()));
                }
            }
            ShardInfo::Stale => t.add_field(sp, "stale", FieldValue::Bool(true)),
            ShardInfo::Failed(e) => t.add_field(sp, "error", FieldValue::Str(e.clone())),
        }
        t.end_span(sp);
    }
    let m = t.start_span("serve.merge");
    t.add_field(m, "merged", FieldValue::Int(merged as i64));
    t.end_span(m);
    t.end_span(b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedConfig;
    use scenerec_core::{FrozenHead, FrozenModel};
    use scenerec_tensor::Matrix;

    /// A one-shard engine: the whole catalog behind one cache.
    fn toy_engine() -> ShardedEngine {
        toy_sharded(1)
    }

    fn toy_sharded(shards: usize) -> ShardedEngine {
        let mut users = Matrix::zeros(3, 2);
        users.set_row(0, &[1.0, 0.0]);
        users.set_row(1, &[0.0, 1.0]);
        users.set_row(2, &[0.5, 0.5]);
        let mut items = Matrix::zeros(5, 2);
        for i in 0..5 {
            items.set_row(i, &[i as f32 * 0.25, 1.0 - i as f32 * 0.25]);
        }
        let frozen = FrozenModel::dense(
            "toy",
            users,
            items,
            FrozenHead::DotBias { bias: vec![0.0; 5] },
        );
        let seen = [vec![0], vec![], vec![4]];
        ShardedEngine::new(frozen, &seen, ShardedConfig::with_shards(shards)).unwrap()
    }

    fn supervised(
        engine: &ShardedEngine,
        reqs: &[Request],
        cfg: &ShardReplayConfig,
        inj: &Injector,
    ) -> Vec<Response> {
        let options = ReplayOptions {
            injector: inj.clone(),
            ..ReplayOptions::default()
        };
        replay_sharded_with(engine, reqs, cfg, &options).responses
    }

    fn log() -> Vec<Request> {
        (0..40u32)
            .map(|i| Request {
                user: i % 3,
                k: 1 + (i as usize % 4),
            })
            .collect()
    }

    #[test]
    fn responses_come_back_in_request_order() {
        let engine = toy_engine();
        let reqs = log();
        let out = replay_sharded(&engine, &reqs, &ShardReplayConfig::default());
        assert_eq!(out.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&out) {
            assert_eq!(req.user, resp.user);
            assert_eq!(req.k, resp.k);
            assert!(resp.error.is_none());
        }
    }

    #[test]
    fn worker_count_does_not_change_bytes() {
        let reqs = log();
        let reference = responses_to_json(&replay_sharded(
            &toy_engine(),
            &reqs,
            &ShardReplayConfig {
                workers: 1,
                max_batch: 4,
                ..ShardReplayConfig::default()
            },
        ));
        for workers in [2, 4] {
            let got = responses_to_json(&replay_sharded(
                &toy_engine(),
                &reqs,
                &ShardReplayConfig {
                    workers,
                    max_batch: 4,
                    ..ShardReplayConfig::default()
                },
            ));
            assert_eq!(reference, got, "workers={workers} diverged");
        }
    }

    #[test]
    fn unknown_user_becomes_error_response() {
        let engine = toy_engine();
        let out = replay_sharded(
            &engine,
            &[Request { user: 42, k: 3 }],
            &ShardReplayConfig::default(),
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].recs.is_empty());
        assert!(out[0].error.as_deref().is_some_and(|e| e.contains("42")));
    }

    /// A request's `k` never sizes an allocation: a `k` far past the
    /// catalog (`1 << 40` once asked the allocator for 8 TiB and aborted
    /// the process; `usize::MAX` overflowed `k + 1`) ranks the whole
    /// catalog, exactly like `k = num_items`.
    #[test]
    fn huge_k_ranks_the_whole_catalog() {
        for shards in [1, 2] {
            let replay_at = |k: usize| {
                let reqs: Vec<Request> = (0..3).map(|user| Request { user, k }).collect();
                replay_sharded(&toy_sharded(shards), &reqs, &ShardReplayConfig::default())
            };
            let want = replay_at(toy_sharded(shards).num_items());
            for k in [1usize << 40, usize::MAX] {
                for (got, want) in replay_at(k).iter().zip(&want) {
                    assert!(
                        got.error.is_none(),
                        "shards={shards} k={k}: {:?}",
                        got.error
                    );
                    assert_eq!(got.recs, want.recs, "shards={shards} k={k}");
                }
            }
        }
    }

    #[test]
    fn empty_log_yields_empty_responses() {
        let engine = toy_engine();
        assert!(replay_sharded(&engine, &[], &ShardReplayConfig::default()).is_empty());
    }

    #[test]
    fn json_rendering_is_compact_and_stable() {
        let mut r = Response {
            user: 1,
            k: 2,
            recs: vec![Recommendation {
                item: scenerec_graph::ItemId(7),
                score: 0.5,
            }],
            error: None,
            degraded: false,
            partial_shards: Vec::new(),
            overload: None,
        };
        assert_eq!(
            r.to_json(),
            "{\"user\":1,\"k\":2,\"recs\":[{\"item\":7,\"score\":0.5}]}"
        );
        r.degraded = true;
        assert_eq!(
            r.to_json(),
            "{\"user\":1,\"k\":2,\"recs\":[{\"item\":7,\"score\":0.5}],\"degraded\":true}"
        );
        r.partial_shards = vec![1, 3];
        assert_eq!(
            r.to_json(),
            "{\"user\":1,\"k\":2,\"recs\":[{\"item\":7,\"score\":0.5}],\"degraded\":true,\
             \"partial_shards\":[1,3]}"
        );
    }

    #[test]
    fn worker_panics_lose_and_duplicate_nothing() {
        use scenerec_faults::{Fault, FaultPlan, Trigger};

        let engine = toy_engine();
        let reqs = log();
        let reference = replay_sharded(&engine, &reqs, &ShardReplayConfig::default());
        for workers in [1usize, 2, 4] {
            let cfg = ShardReplayConfig {
                workers,
                max_batch: 4,
                // Generous budget: which batch absorbs which panic is
                // scheduling-dependent, and this test asserts recovery,
                // not exhaustion.
                max_retries: 16,
            };
            // Every 3rd batch claim panics its worker.
            let inj = Injector::new(FaultPlan::new(workers as u64).inject(
                "serve/shard_worker",
                Trigger::Every(3),
                Fault::Panic,
            ));
            let out = supervised(&engine, &reqs, &cfg, &inj);
            assert!(inj.injected() > 0, "plan never fired at workers={workers}");
            assert_eq!(out, reference, "responses diverged at workers={workers}");
        }
    }

    #[test]
    fn exhausted_worker_requeues_become_error_responses() {
        use scenerec_faults::{Fault, FaultPlan, Trigger};

        let engine = toy_engine();
        let reqs = log();
        let cfg = ShardReplayConfig {
            workers: 2,
            max_batch: 8,
            max_retries: 1,
        };
        // Every batch claim panics: each batch burns its single requeue
        // and is answered with errors — but answered.
        let inj = Injector::new(FaultPlan::new(5).inject(
            "serve/shard_worker",
            Trigger::Always,
            Fault::Panic,
        ));
        let out = supervised(&engine, &reqs, &cfg, &inj);
        assert_eq!(out.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&out) {
            assert_eq!(req.user, resp.user);
            assert!(resp
                .error
                .as_deref()
                .is_some_and(|e| e.contains("worker failed")));
        }
    }

    #[test]
    fn engine_outage_retries_then_degrades_to_stale() {
        use scenerec_faults::{Fault, FaultPlan, Trigger};

        let engine = toy_engine();
        let reqs = vec![Request { user: 1, k: 2 }, Request { user: 1, k: 2 }];
        let cfg = ShardReplayConfig {
            workers: 1,
            max_batch: 1,
            max_retries: 1,
        };
        // The first request succeeds and seeds the stale cache; the
        // second request's attempts (probes 2 and 3) all fail.
        let inj =
            Injector::new(FaultPlan::new(9).inject("serve/shard/0", Trigger::After(1), Fault::Io));
        let out = supervised(&engine, &reqs, &cfg, &inj);
        assert!(out[0].error.is_none() && !out[0].degraded);
        assert!(out[1].degraded, "second response must be a stale fallback");
        assert!(out[1].error.is_none());
        assert_eq!(out[0].recs, out[1].recs, "stale equals fresh bit-for-bit");
    }

    #[test]
    fn engine_outage_without_stale_entry_is_typed_error() {
        use scenerec_faults::{Fault, FaultPlan, Trigger};

        let engine = toy_engine();
        let reqs = vec![Request { user: 0, k: 2 }];
        let cfg = ShardReplayConfig {
            workers: 1,
            max_retries: 2,
            ..ShardReplayConfig::default()
        };
        let inj =
            Injector::new(FaultPlan::new(11).inject("serve/shard/0", Trigger::Always, Fault::Io));
        let out = supervised(&engine, &reqs, &cfg, &inj);
        assert!(out[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("shard 0 unavailable after 2 retries")));
        assert!(!out[0].degraded);
    }
}
