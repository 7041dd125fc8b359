//! Micro-batching request scheduler for the single [`FrozenEngine`].
//!
//! A replayed request log is split into contiguous micro-batches on two
//! lane queues; the supervised pool in `crate::pool` drains them.
//! Responses are reassembled **by request index**, so the output order —
//! and, because the engine is pure and its cache hit/miss behavior cannot
//! change response values, the output bytes — are identical at any worker
//! count. Which worker serves which batch is the *only* nondeterminism,
//! and it is unobservable in the results (pinned by
//! `tests/determinism.rs`).
//!
//! ## Entry points
//!
//! [`replay`] serves a plain request log. [`replay_with`] takes a timed
//! arrival log plus [`ReplayOptions`] — admission control, fault
//! injection and causal tracing, in any combination — and returns a
//! [`Replay`]. Without admission the plan is degenerate: every request
//! in the cold lane, in arrival order, nothing shed. The sharded engine
//! has the same pair, [`crate::replay_sharded`] and
//! [`crate::replay_sharded_with`].
//!
//! ## Failure handling
//!
//! The [`ReplayOptions::injector`] drives three recovery paths, all on
//! **logical ticks** — no wall clocks, so every outcome is reproducible
//! from the fault plan:
//!
//! * **Worker panics** (`serve/worker`): the pool requeues the dead
//!   worker's registered batch at the front of its own lane (bounded by
//!   [`ReplayConfig::max_retries`], then error responses) and respawns a
//!   replacement — every request is answered exactly once, never lost,
//!   never duplicated.
//! * **Engine unavailability** (`serve/engine`): a failed attempt retries
//!   with deterministic exponential backoff
//!   ([`scenerec_faults::Backoff`]); exhausted retries fall back to the
//!   replay's stale-result map (stale equals fresh bit-for-bit — the
//!   engine is pure), else an error response.
//! * **Deadlines** (`serve/request` latency): injected latency beyond
//!   [`ReplayConfig::deadline_ticks`] becomes a typed deadline-exceeded
//!   error response instead of an unbounded wait.
//!
//! Serving telemetry goes through `scenerec-obs`: queue-depth and
//! batch-size histograms, per-request latency, and the recovery counters
//! `serve/retries`, `serve/degraded_hits`, `serve/deadline_misses`, and
//! `serve/worker_respawns`.
//!
//! ## Causal tracing
//!
//! With [`ReplayOptions::trace`] set, every request records one span
//! tree (`serve.request` → `serve.queue` / `serve.batch` →
//! `serve.cache` / `serve.score`) with logical-tick timestamps, so span
//! *structure* is as deterministic as the response bytes. Under
//! admission the root also carries a `lane` field, admitted requests
//! record a `serve.admit` span before `serve.queue`, and shed requests a
//! single `serve.shed` span. Workers log every batch claim into the
//! `scenerec_obs::flight` ring recorder, and the pool attaches a full
//! flight dump to the `Warn` event it emits when it reaps a panicked
//! worker.

use crate::admission::{
    self, AdmissionConfig, AdmissionPlan, Lane, OverloadInfo, TimedRequest, Verdict,
};
use crate::engine::FrozenEngine;
use crate::pool::{self, Claim, Work};
use scenerec_core::Recommendation;
use scenerec_faults::{Backoff, Injector};
use scenerec_obs::metrics::Histogram;
use scenerec_obs::{lock_unpoisoned, metrics, FieldValue, Stopwatch, Trace, TraceData};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

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
    /// Whether `recs` came from the degraded-mode stale cache because
    /// the engine was unavailable (stale results are bit-identical to
    /// fresh ones — the engine is pure — but the flag is surfaced so
    /// clients can tell).
    pub degraded: bool,
    /// Shards whose partial results are **missing** from `recs`
    /// (sharded serving only; always empty on the single-engine path).
    /// A shard outage never silently truncates a top-K: the response is
    /// flagged `degraded` and names exactly which item ranges went
    /// unscored, in ascending shard order.
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
    /// (stale fallback), or `"ok"`.
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
pub struct ReplayConfig {
    /// Worker threads draining the queue (>= 1).
    pub workers: usize,
    /// Max requests per micro-batch (>= 1).
    pub max_batch: usize,
    /// Per-request deadline in logical ticks; injected latency and
    /// retry backoff beyond it become a deadline-exceeded error
    /// response (0 = no deadline).
    pub deadline_ticks: u64,
    /// Bounded retries: per request when the engine is unavailable, and
    /// per batch when its worker panics.
    pub max_retries: u32,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            workers: 1,
            max_batch: 32,
            deadline_ticks: 0,
            max_retries: 2,
        }
    }
}

/// What a replay may do besides serving, shared by both engines'
/// general entry points ([`replay_with`], [`crate::replay_sharded_with`]).
/// The default is a plain replay: no admission, no faults, no traces.
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

/// The outcome of [`replay_with`] or [`crate::replay_sharded_with`].
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

/// Bucket edges for queue-depth / batch-size histograms.
const COUNT_EDGES: [f64; 15] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0,
];

/// Bucket edges for per-request latency in nanoseconds: log-spaced at
/// 6 buckets per decade over 1 µs .. 10 s. Serving latency is
/// heavy-tailed; log spacing keeps the relative quantile error roughly
/// constant all the way into the p999 tail, where the old 1–3–10
/// edges collapsed whole decades into two buckets.
pub fn latency_edges() -> Vec<f64> {
    metrics::log_edges(1e3, 1e10, 6)
}

/// Replays a request log through the engine with a worker pool and
/// returns responses in request order. Failures (e.g. unknown users)
/// become `Response::error` instead of tearing down the batch.
pub fn replay(engine: &FrozenEngine, requests: &[Request], config: &ReplayConfig) -> Vec<Response> {
    let options = ReplayOptions::default();
    replay_with(engine, &TimedRequest::burst(requests), config, &options).responses
}

/// Replays a timed arrival log through the engine under `options`:
/// admission control, fault injection and tracing, in any combination.
///
/// The invariants `tests/chaos.rs` and `tests/overload.rs` pin: **every
/// arrival gets exactly one response, in arrival order, at any worker
/// count, under any fault plan** — a fault can change a response's
/// content (error, degraded) but never lose or duplicate one; with
/// admission, `admitted + shed == offered` and a fault can neither shed
/// admitted work nor admit shed work, because the plan is decided before
/// any worker exists.
///
/// Traced span *structure* — ids, parentage, logical ticks — is a pure
/// function of the request log and cache state, so on a cold engine with
/// distinct keys it is identical at any worker count. The admission
/// slice (root, `serve.admit`, `serve.shed`, `serve.queue`) is always
/// worker-count invariant; the engine-side spans below the queue are not
/// for repeated keys, because with a shared result cache, which replay
/// of a key misses (and so records a `serve.score` span) is an
/// execution-order fact.
pub fn replay_with(
    engine: &FrozenEngine,
    arrivals: &[TimedRequest],
    config: &ReplayConfig,
    options: &ReplayOptions,
) -> Replay {
    let plan = plan_admission(arrivals, options);
    // Without admission the plan is degenerate: everything in the cold
    // lane, in arrival order, nothing shed.
    let order = plan.as_ref().map_or_else(
        || [Vec::new(), (0..arrivals.len()).collect()],
        |p| [p.lane_order(Lane::Fast), p.lane_order(Lane::Cold)],
    );
    let weights = options
        .admission
        .as_ref()
        .map_or((1, 1), |a| (a.fast_weight.max(1), a.cold_weight.max(1)));
    let requests: Vec<Request> = arrivals.iter().map(|a| a.request).collect();
    let lanes = Lanes {
        engine,
        requests: &requests,
        config,
        injector: &options.injector,
        weights,
        fast: lane_batches(Lane::Fast, order[0].len(), config.max_batch),
        cold: lane_batches(Lane::Cold, order[1].len(), config.max_batch),
        order,
        stale: Mutex::new(BTreeMap::new()),
        traces: options
            .trace
            .then(|| Mutex::new(open_traces(arrivals, plan.as_ref()))),
    };
    let slots = pool::run(
        &lanes,
        config.workers,
        config.max_retries,
        &options.injector,
        shed_slots(arrivals, plan.as_ref()),
    );
    let traces = lanes.traces.map_or_else(Vec::new, |m| {
        finish_traces(m.into_inner().unwrap_or_else(PoisonError::into_inner))
    });
    Replay {
        responses: collect_responses(slots),
        traces,
        plan,
    }
}

/// Plans admission when `options` ask for it, recording the plan's
/// admit/shed accounting into the obs registry: `serve/admitted`,
/// `serve/shed`, their per-lane variants (`serve/admitted_fast`, ...),
/// and the `serve/queue_delay_ticks` histogram.
pub(crate) fn plan_admission(
    arrivals: &[TimedRequest],
    options: &ReplayOptions,
) -> Option<AdmissionPlan> {
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
pub(crate) fn shed_slots(
    arrivals: &[TimedRequest],
    plan: Option<&AdmissionPlan>,
) -> Vec<Option<Response>> {
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
pub(crate) fn open_traces(
    arrivals: &[TimedRequest],
    plan: Option<&AdmissionPlan>,
) -> Vec<Option<Trace>> {
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

/// Closes every trace's remaining spans. `Trace::finish` touches the obs
/// span registry, so callers pass owned traces, never a locked vector.
pub(crate) fn finish_traces(traces: Vec<Option<Trace>>) -> Vec<TraceData> {
    traces
        .into_iter()
        .enumerate()
        .map(|(idx, t)| t.unwrap_or_else(|| Trace::new(idx as u64)).finish())
        .collect()
}

/// The filled response slots, in arrival order.
pub(crate) fn collect_responses(slots: Vec<Option<Response>>) -> Vec<Response> {
    let expected = slots.len();
    let out: Vec<Response> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), expected, "scheduler dropped a request");
    out
}

/// A micro-batch: positions `start..end` in its lane's dequeue order
/// (see [`Lanes::order`]).
#[derive(Debug, Clone, Copy)]
struct Batch {
    lane: Lane,
    start: usize,
    end: usize,
}

/// Chops a lane's `count` positions into micro-batches.
fn lane_batches(lane: Lane, count: usize, max_batch: usize) -> Mutex<VecDeque<Claim<Batch>>> {
    let batches = pool::batches(count, max_batch);
    Mutex::new(
        batches
            .map(|(start, end)| Claim::fresh(Batch { lane, start, end }))
            .collect(),
    )
}

/// Residual weighted-round-robin shares for one worker's current
/// round. Workers drain the fast lane `fast_weight` times, then the
/// cold lane `cold_weight` times, an empty lane ceding its remainder —
/// the execution-side mirror of the admission simulator's discipline.
struct LaneShares {
    fast_left: u32,
    cold_left: u32,
}

/// One worker's round-robin position and metric handles.
struct LaneLocal {
    shares: LaneShares,
    queue_hist: Arc<Histogram>,
    batch_hist: Arc<Histogram>,
    latency_hist: Arc<Histogram>,
}

/// The single engine's pool work: two lane queues drained by weighted
/// round-robin. All critical sections only move values between
/// containers, so poisoned locks are safe to recover.
///
/// The two lane queues are **separate mutexes** deliberately: a worker
/// popping the fast (cache-hit) lane takes only `fast`, never `cold`,
/// so a slow cold-scoring drain can never block fast-lane claims
/// (pinned by `fast_lane_pop_never_touches_the_cold_mutex`).
struct Lanes<'a> {
    engine: &'a FrozenEngine,
    requests: &'a [Request],
    config: &'a ReplayConfig,
    injector: &'a Injector,
    /// Lane-weight pair `(fast, cold)` for the drain discipline.
    weights: (u32, u32),
    /// Per-lane dequeue order: `order[lane][pos]` is the request index
    /// a batch position maps to.
    order: [Vec<usize>; 2],
    fast: Mutex<VecDeque<Claim<Batch>>>,
    cold: Mutex<VecDeque<Claim<Batch>>>,
    /// Last good result per (user, k, precision-tag) — the degraded-mode
    /// fallback, tagged like the engine's result cache so stale entries
    /// can never cross precisions. Deliberately not a view of the
    /// engine's `ResultCache`: this map lives for one replay and never
    /// evicts, while the cache persists across replays and evicts LRU
    /// entries, so serving outages from the cache would change which
    /// requests degrade and which return an error.
    stale: Mutex<BTreeMap<(u32, u32, u8), Vec<Recommendation>>>,
    /// One trace per request, present only when tracing. A worker takes
    /// the trace alongside the request, appends its spans, and puts it
    /// back — single-owner hand-off, same life cycle as the response
    /// slot.
    traces: Option<Mutex<Vec<Option<Trace>>>>,
}

impl Lanes<'_> {
    /// The queue for one lane. Callers lock at most one lane queue at
    /// a time — never both.
    fn lane_queue(&self, lane: Lane) -> &Mutex<VecDeque<Claim<Batch>>> {
        match lane {
            Lane::Fast => &self.fast,
            Lane::Cold => &self.cold,
        }
    }

    /// Claims the next batch under the weighted round-robin discipline,
    /// or `None` when both lanes are drained. Each pop locks exactly
    /// one lane queue (a temporary guard, dropped before anything
    /// else): the fast lane is claimed without ever touching the cold
    /// lane's mutex, so cache-hit work cannot block behind cold
    /// scoring's queue contention.
    fn pop_weighted(&self, shares: &mut LaneShares) -> Option<Claim<Batch>> {
        let mut fast_dry = false;
        let mut cold_dry = false;
        loop {
            if shares.fast_left == 0 && shares.cold_left == 0 {
                shares.fast_left = self.weights.0;
                shares.cold_left = self.weights.1;
            }
            if shares.fast_left > 0 {
                shares.fast_left -= 1;
                if let Some(b) = lock_unpoisoned(&self.fast).pop_front() {
                    return Some(b);
                }
                shares.fast_left = 0;
                fast_dry = true;
                if cold_dry {
                    return None;
                }
                continue;
            }
            shares.cold_left -= 1;
            if let Some(b) = lock_unpoisoned(&self.cold).pop_front() {
                return Some(b);
            }
            shares.cold_left = 0;
            cold_dry = true;
            if fast_dry {
                return None;
            }
        }
    }

    /// Serves one request through the retry / deadline / degraded
    /// ladder. `trace`, when present, is handed to the engine exactly
    /// once — the retry loop wraps the injected I/O probe, not the
    /// engine call, so a request records its cache/score spans at most
    /// once under any fault plan.
    fn serve_request(&self, req: &Request, mut trace: Option<&mut Trace>) -> Response {
        let key = (
            req.user,
            u32::try_from(req.k).unwrap_or(u32::MAX),
            self.engine.precision().tag(),
        );
        let deadline = self.config.deadline_ticks;
        // Logical clock for this request: injected latency plus backoff.
        let mut ticks = self.injector.latency("serve/request");
        let mut attempt = 0u32;
        loop {
            if deadline > 0 && ticks > deadline {
                metrics::counter("serve/deadline_misses").inc();
                return Response::error(
                    req,
                    format!("deadline exceeded: {ticks} > {deadline} ticks"),
                );
            }
            match self.injector.io("serve/engine") {
                Ok(()) => {
                    return match self.engine.top_k_inner(req.user, req.k, trace.take()) {
                        Ok(recs) => {
                            lock_unpoisoned(&self.stale).insert(key, recs.clone());
                            Response::ok(req, recs)
                        }
                        Err(e) => Response::error(req, e.to_string()),
                    };
                }
                Err(e) => {
                    if attempt < self.config.max_retries {
                        metrics::counter("serve/retries").inc();
                        ticks = ticks.saturating_add(Backoff::default().ticks(attempt));
                        attempt += 1;
                        continue;
                    }
                    // Retries exhausted: degrade to the last good result
                    // for this (user, k), else a typed error. Bind the
                    // lookup so the stale-map guard (a temporary) is
                    // dropped before the metrics counter takes the obs
                    // registry lock (L2).
                    let stale_hit = lock_unpoisoned(&self.stale).get(&key).cloned();
                    if let Some(recs) = stale_hit {
                        metrics::counter("serve/degraded_hits").inc();
                        return Response {
                            degraded: true,
                            ..Response::ok(req, recs)
                        };
                    }
                    return Response::error(
                        req,
                        format!("engine unavailable after {attempt} retries: {e}"),
                    );
                }
            }
        }
    }
}

impl Work for Lanes<'_> {
    type Task = Batch;
    type Out = Response;
    type Local = LaneLocal;

    const RESPAWNS: &'static str = "serve/worker_respawns";
    const PANIC_POINT: &'static str = "serve/worker";
    const CLAIM_EVENT: &'static str = "serve.batch.claim";
    const PANIC_MESSAGE: &'static str = "worker panicked; respawning";

    fn local(&self) -> LaneLocal {
        LaneLocal {
            shares: LaneShares {
                fast_left: 0,
                cold_left: 0,
            },
            queue_hist: metrics::histogram("serve/queue_depth", &COUNT_EDGES),
            batch_hist: metrics::histogram("serve/batch_size", &COUNT_EDGES),
            latency_hist: metrics::histogram("serve/latency_ns", &latency_edges()),
        }
    }

    fn claim(&self, _slot: usize, local: &mut LaneLocal) -> Option<Claim<Batch>> {
        // Depth is sampled lane by lane — two short temporary guards,
        // never held together, never held across the observe.
        let depth = |q: &Mutex<VecDeque<Claim<Batch>>>| -> usize {
            lock_unpoisoned(q)
                .iter()
                .map(|c| c.task.end - c.task.start)
                .sum()
        };
        let queued = depth(&self.fast) + depth(&self.cold);
        if queued > 0 {
            local.queue_hist.observe(queued as f64);
        }
        self.pop_weighted(&mut local.shares)
    }

    /// Requeues at the front of the batch's own lane: the batch was
    /// admitted, so it re-enters a queue the admission gate already
    /// bounded — a fault can never displace admitted work into shedding.
    fn requeue(&self, _slot: usize, claim: Claim<Batch>) {
        lock_unpoisoned(self.lane_queue(claim.task.lane)).push_front(claim);
    }

    fn serve_task(&self, batch: Batch, local: &mut LaneLocal) -> Vec<(usize, Response)> {
        local.batch_hist.observe((batch.end - batch.start) as f64);
        let mut served = Vec::with_capacity(batch.end - batch.start);
        for pos in batch.start..batch.end {
            let idx = self.order[batch.lane.index()][pos];
            let watch = Stopwatch::start();
            let mut trace = self
                .traces
                .as_ref()
                .and_then(|m| lock_unpoisoned(m)[idx].take());
            let batch_span = trace.as_mut().map(|t| {
                t.end_top(); // serve.queue: the wait is over
                let b = t.start_span("serve.batch");
                t.add_field(b, "batch_start", FieldValue::Int(batch.start as i64));
                t.add_field(b, "batch_end", FieldValue::Int(batch.end as i64));
                b
            });
            let response = self.serve_request(&self.requests[idx], trace.as_mut());
            if let (Some(t), Some(b)) = (trace.as_mut(), batch_span) {
                t.end_span(b);
            }
            if let (Some(m), Some(t)) = (self.traces.as_ref(), trace) {
                lock_unpoisoned(m)[idx] = Some(t);
            }
            local.latency_hist.observe(watch.elapsed_ns() as f64);
            served.push((idx, response));
        }
        served
    }

    fn fail_task(&self, batch: Batch, attempts: u32) -> Vec<(usize, Response)> {
        (batch.start..batch.end)
            .map(|pos| {
                let idx = self.order[batch.lane.index()][pos];
                let error = format!("worker failed {attempts} times serving this batch");
                (idx, Response::error(&self.requests[idx], error))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use scenerec_core::{FrozenHead, FrozenModel};
    use scenerec_tensor::Matrix;

    fn toy_engine() -> FrozenEngine {
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
        FrozenEngine::new(frozen, &[vec![0], vec![], vec![4]], EngineConfig::default()).unwrap()
    }

    fn supervised(
        engine: &FrozenEngine,
        reqs: &[Request],
        cfg: &ReplayConfig,
        inj: &Injector,
    ) -> Vec<Response> {
        let options = ReplayOptions {
            injector: inj.clone(),
            ..ReplayOptions::default()
        };
        replay_with(engine, &TimedRequest::burst(reqs), cfg, &options).responses
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
        let out = replay(&engine, &reqs, &ReplayConfig::default());
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
        let reference = responses_to_json(&replay(
            &toy_engine(),
            &reqs,
            &ReplayConfig {
                workers: 1,
                max_batch: 4,
                ..ReplayConfig::default()
            },
        ));
        for workers in [2, 4] {
            let got = responses_to_json(&replay(
                &toy_engine(),
                &reqs,
                &ReplayConfig {
                    workers,
                    max_batch: 4,
                    ..ReplayConfig::default()
                },
            ));
            assert_eq!(reference, got, "workers={workers} diverged");
        }
    }

    #[test]
    fn unknown_user_becomes_error_response() {
        let engine = toy_engine();
        let out = replay(
            &engine,
            &[Request { user: 42, k: 3 }],
            &ReplayConfig::default(),
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].recs.is_empty());
        assert!(out[0].error.as_deref().is_some_and(|e| e.contains("42")));
    }

    #[test]
    fn empty_log_yields_empty_responses() {
        let engine = toy_engine();
        assert!(replay(&engine, &[], &ReplayConfig::default()).is_empty());
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
        let reference = replay(&engine, &reqs, &ReplayConfig::default());
        for workers in [1usize, 2, 4] {
            let cfg = ReplayConfig {
                workers,
                max_batch: 4,
                // Generous budget: which batch absorbs which panic is
                // scheduling-dependent, and this test asserts recovery,
                // not exhaustion.
                max_retries: 16,
                ..ReplayConfig::default()
            };
            // Every 3rd batch claim panics its worker.
            let inj = Injector::new(FaultPlan::new(workers as u64).inject(
                "serve/worker",
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
        let cfg = ReplayConfig {
            workers: 2,
            max_batch: 8,
            max_retries: 1,
            ..ReplayConfig::default()
        };
        // Every batch claim panics: each batch burns its single requeue
        // and is answered with errors — but answered.
        let inj =
            Injector::new(FaultPlan::new(5).inject("serve/worker", Trigger::Always, Fault::Panic));
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
        let cfg = ReplayConfig {
            workers: 1,
            max_batch: 1,
            max_retries: 1,
            ..ReplayConfig::default()
        };
        // The first request succeeds and seeds the stale cache; the
        // second request's attempts (probes 2 and 3) all fail.
        let inj =
            Injector::new(FaultPlan::new(9).inject("serve/engine", Trigger::After(1), Fault::Io));
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
        let cfg = ReplayConfig {
            workers: 1,
            max_retries: 2,
            ..ReplayConfig::default()
        };
        let inj =
            Injector::new(FaultPlan::new(11).inject("serve/engine", Trigger::Always, Fault::Io));
        let out = supervised(&engine, &reqs, &cfg, &inj);
        assert!(out[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("engine unavailable after 2 retries")));
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

    fn tiny_bounds() -> (ReplayConfig, AdmissionConfig) {
        (
            ReplayConfig {
                max_batch: 4,
                ..ReplayConfig::default()
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
        engine: &FrozenEngine,
        arrivals: &[TimedRequest],
        (replay, admission): &(ReplayConfig, AdmissionConfig),
    ) -> (Vec<Response>, AdmissionPlan) {
        let options = ReplayOptions {
            admission: Some(admission.clone()),
            ..ReplayOptions::default()
        };
        let out = replay_with(engine, arrivals, replay, &options);
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

    /// Satellite regression for the lane-mutex split: claiming fast-lane
    /// work must never lock the cold lane's queue mutex. The test holds
    /// the cold mutex on the *same* thread and then pops the fast lane —
    /// if `pop_weighted` ever touched the cold mutex on that path, this
    /// would deadlock (std mutexes are non-reentrant) and the test
    /// would hang instead of passing.
    #[test]
    fn fast_lane_pop_never_touches_the_cold_mutex() {
        let engine = toy_engine();
        let reqs = log();
        let config = ReplayConfig::default();
        let inj = Injector::disabled();
        let batch = |lane| {
            Claim::fresh(Batch {
                lane,
                start: 0,
                end: 2,
            })
        };
        let shared = Lanes {
            engine: &engine,
            requests: &reqs,
            config: &config,
            injector: &inj,
            weights: (4, 1),
            order: [vec![0, 1], vec![2, 3]],
            fast: Mutex::new(VecDeque::from([batch(Lane::Fast)])),
            cold: Mutex::new(VecDeque::from([batch(Lane::Cold)])),
            stale: Mutex::new(BTreeMap::new()),
            traces: None,
        };
        let _cold_guard = shared.cold.lock().expect("test holds the cold lane");
        let mut shares = LaneShares {
            fast_left: 0,
            cold_left: 0,
        };
        let claimed = shared
            .pop_weighted(&mut shares)
            .expect("fast batch claimed while cold lane is held");
        assert_eq!(claimed.task.lane, Lane::Fast);
    }

    #[test]
    fn injected_latency_past_deadline_is_deadline_error() {
        use scenerec_faults::{Fault, FaultPlan, Trigger};

        let engine = toy_engine();
        let reqs = vec![Request { user: 0, k: 1 }, Request { user: 1, k: 1 }];
        let cfg = ReplayConfig {
            workers: 1,
            max_batch: 1,
            deadline_ticks: 100,
            ..ReplayConfig::default()
        };
        let inj = Injector::new(FaultPlan::new(13).inject(
            "serve/request",
            Trigger::Nth(2),
            Fault::Latency(250),
        ));
        let out = supervised(&engine, &reqs, &cfg, &inj);
        assert!(out[0].error.is_none(), "request under deadline serves");
        assert!(out[1]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("deadline exceeded: 250 > 100")));
    }
}
