//! The replay entry points: admission, scatter, gather.
//!
//! [`replay_sharded`] serves a plain request log through a
//! [`ShardedEngine`]; [`replay_sharded_with`] takes a timed arrival log
//! plus [`ReplayOptions`] — admission control, fault injection and
//! causal tracing, in any combination — and returns a [`Replay`]. A
//! one-shard engine is the single-engine deployment; there is no other
//! serving path. A replay runs in three steps:
//!
//! 1. **Admission** (optional) plans the whole log up front, as a pure
//!    function of (arrival order, capacities, lanes): shed arrivals are
//!    answered with typed overload responses, and admitted ones are
//!    served in the plan's global dequeue order
//!    ([`AdmissionPlan::admitted_order`]), which already encodes the
//!    lanes' weighted round-robin. Without admission every arrival is
//!    served, in arrival order.
//! 2. **Scatter** (`crate::pool`) serves every (request, shard) cell on
//!    supervised workers, each shard pinned to one of them.
//! 3. **Gather** runs on the calling thread, in serving order, walking
//!    shards in index order: it merges each request's cells with
//!    [`merge_top_k`] into the request's arrival slot and records its
//!    spans.
//!
//! Responses are reassembled **by arrival index**, and each shard's
//! cells run FIFO on one owner worker, so response bytes, counters and
//! trace structure are identical at any worker count (pinned by
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
//! * **Shard outages** (`serve/shard/{s}`): a failed attempt retries
//!   with deterministic backoff ([`scenerec_faults::Backoff`]);
//!   exhausted retries answer from the replay's last good partial for
//!   that (shard, user, k). Such a response is flagged `degraded` but
//!   complete and bit-identical to a fresh one. Only a shard with no
//!   stale partial is named in [`Response::partial_shards`] — an outage
//!   never silently truncates a top-K — and when every shard fails the
//!   response is a typed error.
//!
//! Serving telemetry goes through `scenerec-obs`: the per-shard
//! `serve/shard/{s}/{requests,cache_hits,cache_misses}` counters,
//! `serve/shard_retries`, `serve/shard_backoff_ticks`,
//! `serve/shard_stale_hits`, `serve/shard_degraded` (degraded responses)
//! and `serve/shard_worker_respawns`, and the `serve/latency_ns`
//! histogram with one observation per (request, shard) cell.
//!
//! ## Causal tracing
//!
//! With [`ReplayOptions::trace`] set, every arrival records one span
//! tree (`serve.request` → `serve.queue` / `serve.batch` → one
//! `serve.shard` per shard, then `serve.merge`) with logical-tick
//! timestamps, so span *structure* is as deterministic as the response
//! bytes. A shard span carries `shard` and `hit`; on a miss also
//! `candidates`, `backend` and `precision`; a stale answer carries
//! `stale`, a failed shard `error`. Under admission the root also
//! carries a `lane` field, admitted requests record a `serve.admit`
//! span before `serve.queue`, and shed requests a single `serve.shed`
//! span. Workers log every task claim into the `scenerec_obs::flight`
//! ring recorder, and the pool attaches a full flight dump to the
//! `Warn` event it emits when it reaps a panicked worker.

use crate::admission::{
    self, AdmissionConfig, AdmissionPlan, Lane, OverloadInfo, TimedRequest, Verdict,
};
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
    /// Set when the admission gate shed this request instead of
    /// queueing it (admission-controlled replays only): the lane that
    /// was full, the queue depth observed, and a deterministic
    /// retry-after hint in logical ticks. An overloaded response is
    /// typed — never a silent drop, never conflated with an engine error.
    pub overload: Option<OverloadInfo>,
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

    /// A request the admission gate shed.
    pub(crate) fn shed(req: &Request, info: OverloadInfo) -> Self {
        Response {
            overload: Some(info),
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
        if let Some(o) = &self.overload {
            s.push_str(",\"overloaded\":{\"lane\":\"");
            s.push_str(o.lane.name());
            s.push_str("\",\"queue_depth\":");
            s.push_str(&o.queue_depth.to_string());
            s.push_str(",\"retry_after_ticks\":");
            s.push_str(&o.retry_after_ticks.to_string());
            s.push('}');
        }
        s.push('}');
        s
    }

    /// Coarse outcome classification, for accounting and tests:
    /// `"overloaded"` (shed at admission), `"error"`, `"degraded"`
    /// (a shard outage), or `"ok"`.
    pub fn outcome(&self) -> &'static str {
        if self.overload.is_some() {
            "overloaded"
        } else if self.error.is_some() {
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
    /// per shard; larger batches amortize one shard's matrix residency
    /// over more requests.
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
/// default is a plain replay: no admission, no faults, no traces.
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// Bounded-queue admission control. When set, the whole replay is
    /// planned up front by [`admission::plan`] — a pure function of
    /// (arrival order, capacities, lanes) — and shed arrivals are
    /// answered with typed overload responses; workers only ever see
    /// admitted work, so shedding cannot depend on the worker count.
    pub admission: Option<AdmissionConfig>,
    /// Fault injection; the disabled injector makes every probe a no-op.
    pub injector: Injector,
    /// Record one [`TraceData`] per arrival ([`Replay::traces`]).
    pub trace: bool,
}

/// The outcome of [`replay_sharded_with`].
#[derive(Debug)]
pub struct Replay {
    /// One response per arrival, in arrival order.
    pub responses: Vec<Response>,
    /// One trace per arrival (`trace_id` = arrival index) when
    /// [`ReplayOptions::trace`] is set, else empty.
    pub traces: Vec<TraceData>,
    /// The admission plan, when [`ReplayOptions::admission`] is set.
    pub plan: Option<AdmissionPlan>,
}

/// Bucket edges for the queue-delay histogram.
const COUNT_EDGES: [f64; 15] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0,
];

/// Bucket edges for the `serve/latency_ns` histogram (one observation
/// per (request, shard) cell), in nanoseconds: log-spaced at 6 buckets
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
    let options = ReplayOptions::default();
    replay_sharded_with(engine, &TimedRequest::burst(requests), config, &options).responses
}

/// Replays a timed arrival log through a [`ShardedEngine`] under
/// `options`: admission control, fault injection and tracing, in any
/// combination.
///
/// The invariants `tests/chaos.rs` and `tests/overload.rs` pin: **every
/// arrival gets exactly one response, in arrival order, at any worker
/// count, under any fault plan** — a fault can change a response's
/// content (error, degraded) but never lose or duplicate one; with
/// admission, `admitted + shed == offered` and a fault can neither shed
/// admitted work nor admit shed work, because the plan is decided before
/// any worker exists.
///
/// Traces: one [`TraceData`] per arrival. The gather assembles every
/// tree in deterministic shard order, so span *structure* — ids,
/// parentage, logical ticks — is identical at any worker count (pinned
/// via `structure_digest` in `tests/serving_parity.rs`).
pub fn replay_sharded_with(
    engine: &ShardedEngine,
    arrivals: &[TimedRequest],
    config: &ShardReplayConfig,
    options: &ReplayOptions,
) -> Replay {
    let plan = plan_admission(arrivals, options);
    // Arrival index of each served request: the plan's global dequeue
    // order, or arrival order without admission.
    let order = plan.as_ref().map_or_else(
        || (0..arrivals.len()).collect(),
        AdmissionPlan::admitted_order,
    );
    let requests: Vec<Request> = order.iter().map(|&idx| arrivals[idx].request).collect();
    let max_batch = config.max_batch.max(1);
    let num_shards = engine.num_shards();
    let precision = engine.precision().name();
    let cells = pool::scatter(engine, &requests, config, &options.injector);

    // Gather single-threaded, in serving order, walking shards in index
    // order — which is what makes trace structure trivially worker-count
    // invariant.
    let mut slots = shed_slots(arrivals, plan.as_ref());
    let mut traces = options.trace.then(|| open_traces(arrivals, plan.as_ref()));
    let mut cells = cells.into_iter();
    for (pos, (&idx, req)) in order.iter().zip(&requests).enumerate() {
        let (response, infos) = gather(req, cells.by_ref().take(num_shards));
        if let Some(t) = traces.as_mut().and_then(|ts| ts[idx].as_mut()) {
            let batch_start = pos - pos % max_batch;
            let batch_end = (batch_start + max_batch).min(requests.len());
            let batch = (batch_start, batch_end);
            trace_gather(t, batch, &infos, precision, response.recs.len());
        }
        debug_assert!(slots[idx].is_none(), "response {idx} served twice");
        slots[idx] = Some(response);
    }
    let expected = slots.len();
    let responses: Vec<Response> = slots.into_iter().flatten().collect();
    debug_assert_eq!(responses.len(), expected, "scheduler dropped a request");
    // `Trace::finish` touches the obs span registry, so traces close
    // here, owned, never under a lock.
    let traces = traces.map_or_else(Vec::new, |ts| {
        ts.into_iter()
            .enumerate()
            .map(|(idx, t)| t.unwrap_or_else(|| Trace::new(idx as u64)).finish())
            .collect()
    });
    Replay {
        responses,
        traces,
        plan,
    }
}

/// Plans admission when `options` ask for it, recording the plan's
/// admit/shed accounting into the obs registry: `serve/admitted`,
/// `serve/shed`, their per-lane variants (`serve/admitted_fast`, ...),
/// and the `serve/queue_delay_ticks` histogram.
fn plan_admission(arrivals: &[TimedRequest], options: &ReplayOptions) -> Option<AdmissionPlan> {
    let plan = admission::plan(arrivals, options.admission.as_ref()?);
    metrics::counter("serve/admitted").add(plan.admitted() as u64);
    metrics::counter("serve/shed").add(plan.shed() as u64);
    for lane in [Lane::Fast, Lane::Cold] {
        metrics::counter(&format!("serve/admitted_{}", lane.name()))
            .add(plan.admitted_by_lane[lane.index()] as u64);
        metrics::counter(&format!("serve/shed_{}", lane.name()))
            .add(plan.shed_by_lane[lane.index()] as u64);
    }
    let delay_hist = metrics::histogram("serve/queue_delay_ticks", &COUNT_EDGES);
    for delay in plan.queue_delays() {
        delay_hist.observe(delay as f64);
    }
    Some(plan)
}

/// One response slot per arrival, pre-filled with a typed overload
/// response for every shed arrival; workers only ever fill the rest.
fn shed_slots(arrivals: &[TimedRequest], plan: Option<&AdmissionPlan>) -> Vec<Option<Response>> {
    arrivals
        .iter()
        .enumerate()
        .map(|(idx, arrival)| match plan.map(|p| &p.verdicts[idx]) {
            Some(Verdict::Shed(info)) => Some(Response::shed(&arrival.request, *info)),
            _ => None,
        })
        .collect()
}

/// Opens every arrival's trace: the `serve.request` root, then either
/// `serve.queue` (left open for the serving side to close), or under
/// admission a closed `serve.admit` span before it, or a closed
/// `serve.shed` span instead of it. This runs on the calling thread, in
/// arrival order, before any worker exists, so none of these ticks can
/// depend on worker interleaving.
fn open_traces(arrivals: &[TimedRequest], plan: Option<&AdmissionPlan>) -> Vec<Option<Trace>> {
    let lane_field = |t: &mut Trace, root, lane: Lane| {
        t.add_field(root, "lane", FieldValue::Str(lane.name().to_string()));
    };
    arrivals
        .iter()
        .enumerate()
        .map(|(idx, arrival)| {
            let mut t = Trace::new(idx as u64);
            let root = t.start_span("serve.request");
            t.add_field(root, "user", FieldValue::Int(arrival.request.user as i64));
            t.add_field(root, "k", FieldValue::Int(arrival.request.k as i64));
            match plan.map(|p| &p.verdicts[idx]) {
                None => {
                    t.start_span("serve.queue");
                }
                Some(Verdict::Admit { lane, seq, .. }) => {
                    lane_field(&mut t, root, *lane);
                    let admit = t.start_span("serve.admit");
                    t.add_field(admit, "seq", FieldValue::Int(*seq as i64));
                    t.end_span(admit);
                    t.start_span("serve.queue");
                }
                Some(Verdict::Shed(info)) => {
                    lane_field(&mut t, root, info.lane);
                    let shed = t.start_span("serve.shed");
                    t.add_field(
                        shed,
                        "queue_depth",
                        FieldValue::Int(info.queue_depth as i64),
                    );
                    t.add_field(
                        shed,
                        "retry_after_ticks",
                        FieldValue::Int(info.retry_after_ticks as i64),
                    );
                    t.end_span(shed);
                }
            }
            Some(t)
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
    if degraded {
        metrics::counter("serve/shard_degraded").inc();
    }
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
        ShardedEngine::new(frozen, &seen, ShardedConfig::with_shards(1)).unwrap()
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
        replay_sharded_with(engine, &TimedRequest::burst(reqs), cfg, &options).responses
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

    /// The 48-request log as a single tick-0 burst: everything arrives
    /// before the first drain round, so tiny capacities must shed.
    fn timed_burst() -> Vec<TimedRequest> {
        log()
            .into_iter()
            .map(|request| TimedRequest {
                arrive_tick: 0,
                request,
            })
            .collect()
    }

    fn tiny_bounds() -> (ShardReplayConfig, AdmissionConfig) {
        (
            ShardReplayConfig {
                max_batch: 4,
                ..ShardReplayConfig::default()
            },
            AdmissionConfig {
                fast_capacity: 4,
                cold_capacity: 6,
                drain_every_ticks: 100,
                drain_per_round: 1,
                ..AdmissionConfig::default()
            },
        )
    }

    fn bounded(
        engine: &ShardedEngine,
        arrivals: &[TimedRequest],
        (replay, admission): &(ShardReplayConfig, AdmissionConfig),
    ) -> (Vec<Response>, AdmissionPlan) {
        let options = ReplayOptions {
            admission: Some(admission.clone()),
            ..ReplayOptions::default()
        };
        let out = replay_sharded_with(engine, arrivals, replay, &options);
        (out.responses, out.plan.expect("admission was requested"))
    }

    #[test]
    fn bounded_burst_sheds_typed_and_accounts_exactly() {
        let engine = toy_engine();
        let arrivals = timed_burst();
        let (out, plan) = bounded(&engine, &arrivals, &tiny_bounds());
        assert_eq!(out.len(), arrivals.len());
        assert_eq!(plan.admitted() + plan.shed(), plan.offered());
        assert!(plan.shed() > 0, "burst must overflow the toy capacities");
        let shed = out.iter().filter(|r| r.overload.is_some()).count();
        assert_eq!(shed, plan.shed(), "every planned shed is answered");
        for r in &out {
            match r.outcome() {
                "overloaded" => {
                    let info = r.overload.expect("typed overload info");
                    assert!(info.retry_after_ticks >= 1);
                    assert!(info.queue_depth > 0);
                    assert!(r.recs.is_empty() && r.error.is_none() && !r.degraded);
                    assert!(r.to_json().contains("\"overloaded\":{\"lane\":"));
                }
                "ok" => assert!(r.overload.is_none()),
                other => panic!("unexpected outcome {other}"),
            }
        }
    }

    #[test]
    fn bounded_worker_count_does_not_change_bytes() {
        let arrivals = timed_burst();
        let cfg = tiny_bounds();
        let (reference, ref_plan) = bounded(&toy_engine(), &arrivals, &cfg);
        let reference = responses_to_json(&reference);
        for workers in [2usize, 4] {
            let mut cfg = cfg.clone();
            cfg.0.workers = workers;
            let (out, plan) = bounded(&toy_engine(), &arrivals, &cfg);
            assert_eq!(plan, ref_plan, "plan changed at workers={workers}");
            assert_eq!(
                responses_to_json(&out),
                reference,
                "bytes diverged at workers={workers}"
            );
        }
    }

    #[test]
    fn zero_capacity_sheds_everything_and_still_answers() {
        let engine = toy_engine();
        let arrivals = timed_burst();
        let mut cfg = tiny_bounds();
        cfg.1.fast_capacity = 0;
        cfg.1.cold_capacity = 0;
        let (out, plan) = bounded(&engine, &arrivals, &cfg);
        assert_eq!(plan.shed(), arrivals.len());
        assert_eq!(out.len(), arrivals.len());
        assert!(out.iter().all(|r| r.outcome() == "overloaded"));
    }
}
