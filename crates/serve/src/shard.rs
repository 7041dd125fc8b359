//! Sharded serving: range-partitioned scoring with exact scatter-gather
//! merge and consistent-hash routing.
//!
//! Frozen scoring is bandwidth-bound — every request streams the whole
//! item matrix through the cache hierarchy once. A [`ShardedEngine`]
//! splits the catalog into contiguous item ranges
//! ([`scenerec_core::ShardMap`]) and scores each shard independently:
//! when the scheduler walks a micro-batch *shard-major* (every request
//! in the batch against shard 0, then shard 1, …), one shard's slice of
//! the matrix stays resident in the last-level cache across the whole
//! batch instead of being evicted by the rest of the catalog. On a
//! catalog that overflows the LLC this turns most of the matrix traffic
//! into cache hits — the throughput win `bench/src/bin/shard.rs`
//! measures, no extra cores required.
//!
//! ## Exactness
//!
//! Sharding never changes a byte of any response. Per-element scores
//! depend only on the user row, the item row, and that item's head
//! state (`score_ids`), so slicing cannot perturb them; and the
//! serving order `(score desc, item asc)` is a strict total order, so
//! merging per-shard top-K lists with the same comparator
//! ([`merge_top_k`]) reproduces the single-engine ranking exactly, ties
//! included (proof sketch on [`merge_top_k`]; pinned for every
//! precision and shard count by `tests/properties.rs` and
//! `tests/serving_parity.rs`).
//!
//! ## Routing and scheduling
//!
//! [`replay_sharded`] and [`replay_sharded_with`] expand each
//! micro-batch into one *(batch × shard)* task per shard and route every
//! shard's tasks to a single owner worker through a consistent-hash ring
//! (16 splitmix64 points per worker), on the same supervised pool as the
//! single-engine scheduler. One owner
//! per shard means each shard's task stream is FIFO, so its cache
//! hit/miss evolution — and therefore every counter and trace field —
//! is identical at any worker count; the ring's stability keeps most
//! shard→worker assignments fixed when the pool grows.
//!
//! ## Failure model (DESIGN.md §15)
//!
//! * **Shard-worker panics** (`serve/shard_worker`): the pool registers
//!   each task in-flight before serving and commits it atomically after,
//!   so it requeues a dead worker's task exactly once per panic (bounded
//!   by [`ShardReplayConfig::max_retries`], then per-shard error cells)
//!   and respawns the worker. No request is ever lost or served twice.
//! * **Shard outages** (`serve/shard/{s}` I/O faults): retried with
//!   deterministic backoff; past the budget the *shard* fails, not the
//!   request. A response missing one or more shards is served from the
//!   surviving partials, flagged `degraded`, and names the missing
//!   ranges in [`Response::partial_shards`] — a shard outage never
//!   silently truncates a top-K. Only when *every* shard fails does
//!   the response become a typed error.
//!
//! ## Caching and invalidation
//!
//! Each shard owns its own (user, k) LRU. A shard swap
//! ([`ShardedEngine::swap_shard`]) invalidates exactly its own cache
//! with an O(1) epoch bump ([`ResultCache::bump_epoch`]); other
//! shards' warm entries survive. `mark_seen` evicts the user only from
//! the shard that owns the item. Per-shard counters live at
//! `serve/shard/{s}/{requests,cache_hits,cache_misses}`.

use crate::admission::{AdmissionPlan, TimedRequest};
use crate::cache::ResultCache;
use crate::engine::{score_ids, seen_lists, EngineConfig, ServeError};
use crate::mask::SeenMask;
use crate::pool::{self, Claim, Work};
use crate::scheduler::{
    collect_responses, finish_traces, latency_edges, open_traces, plan_admission, shed_slots,
    Replay, ReplayOptions, Request, Response,
};
use crate::topk::{merge_top_k, select_top_k};
use scenerec_core::{
    EntityMatrix, FrozenHead, FrozenModel, PairwiseModel, Precision, Recommendation, ShardMap,
};
use scenerec_data::Dataset;
use scenerec_faults::{Backoff, Injector};
use scenerec_obs::metrics::Histogram;
use scenerec_obs::{lock_unpoisoned, metrics, FieldValue, Stopwatch, Trace};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Tuning knobs for a [`ShardedEngine`].
#[derive(Debug, Clone, Default)]
pub struct ShardedConfig {
    /// Number of contiguous item shards (0 behaves like 1; clamped to
    /// the catalog size by [`ShardMap::contiguous`]).
    pub shards: usize,
    /// Per-shard engine knobs; `cache_capacity` applies to *each*
    /// shard's cache.
    pub engine: EngineConfig,
}

impl ShardedConfig {
    /// A config with `shards` shards and default engine knobs.
    pub fn with_shards(shards: usize) -> Self {
        ShardedConfig {
            shards,
            engine: EngineConfig::default(),
        }
    }
}

/// One contiguous item range of the frozen catalog: its sliced entity
/// rows, its slice of the head, and its own result cache.
#[derive(Debug)]
struct Shard {
    /// First global item id in this shard (ids are `start..start+rows`).
    start: u32,
    items: EntityMatrix,
    head: FrozenHead,
    cache: Mutex<ResultCache>,
}

/// One shard's contribution to a request: its local top-K re-labelled
/// with global item ids, plus the cache outcome for observability.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPartial {
    /// The shard's top-K candidates, global item ids, ranked.
    pub recs: Vec<Recommendation>,
    /// Whether the shard's cache answered the request.
    pub hit: bool,
    /// Unseen candidates scored on a miss (0 on a hit).
    pub candidates: usize,
}

/// A range-partitioned serving engine over a [`FrozenModel`].
///
/// Holds the full user matrix plus one shard per contiguous item
/// range. Seen masks are stored *sparsely* (only users with at least
/// one seen item carry a mask) — at catalog scale a dense per-user
/// bitmask vector would dwarf the model itself.
#[derive(Debug)]
pub struct ShardedEngine {
    name: String,
    users: EntityMatrix,
    precision: Precision,
    map: ShardMap,
    shards: Vec<Shard>,
    seen: BTreeMap<u32, SeenMask>,
    num_users: usize,
    num_items: usize,
    config: ShardedConfig,
}

fn shard_range_err(s: usize, shards: usize) -> ServeError {
    ServeError::Invalid(format!(
        "shard {s} out of range (engine has {shards} shards)"
    ))
}

impl ShardedEngine {
    /// Builds a sharded engine from a frozen model plus each user's
    /// seen-item list (index = user id), mirroring
    /// [`crate::FrozenEngine::new`].
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when the snapshot fails validation or the
    /// seen list does not cover every user.
    pub fn new(
        frozen: FrozenModel,
        seen_items: &[Vec<u32>],
        config: ShardedConfig,
    ) -> Result<Self, ServeError> {
        if seen_items.len() != frozen.num_users() {
            return Err(ServeError::Invalid(format!(
                "seen lists cover {} users but the model has {}",
                seen_items.len(),
                frozen.num_users()
            )));
        }
        let num_items = frozen.num_items() as u32;
        let seen = seen_items
            .iter()
            .enumerate()
            .filter(|(_, items)| !items.is_empty())
            .map(|(u, items)| (u as u32, SeenMask::from_items(num_items, items)))
            .collect();
        Self::build(frozen, seen, config)
    }

    /// Builds a sharded engine with no seen-item exclusions at all —
    /// the frozen-only path `paper_scale_plus` synthesis uses, where
    /// materializing per-user lists would serve no purpose.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] on an inconsistent snapshot.
    pub fn new_unseen(frozen: FrozenModel, config: ShardedConfig) -> Result<Self, ServeError> {
        Self::build(frozen, BTreeMap::new(), config)
    }

    /// Freezes `model` at `precision` and builds a sharded engine with
    /// seen masks from the dataset's training interactions, mirroring
    /// [`crate::FrozenEngine::from_model_quantized`].
    ///
    /// # Errors
    /// [`ServeError::Unsupported`] when the model cannot freeze;
    /// [`ServeError::Invalid`] on an inconsistent snapshot.
    pub fn from_model_quantized<M: PairwiseModel>(
        model: &M,
        data: &Dataset,
        precision: Precision,
        config: ShardedConfig,
    ) -> Result<Self, ServeError> {
        let frozen = model
            .freeze_quantized(precision)
            .ok_or_else(|| ServeError::Unsupported(model.name().to_owned()))?;
        Self::new(frozen, &seen_lists(data), config)
    }

    fn build(
        frozen: FrozenModel,
        seen: BTreeMap<u32, SeenMask>,
        config: ShardedConfig,
    ) -> Result<Self, ServeError> {
        frozen.validate().map_err(ServeError::Invalid)?;
        let num_users = frozen.num_users();
        let num_items = frozen.num_items();
        let precision = frozen.precision();
        let map = ShardMap::contiguous(num_items, config.shards.max(1));
        let mut shards = Vec::with_capacity(map.num_shards());
        for w in map.boundaries().windows(2) {
            let (start, end) = (w[0], w[1]);
            let (items, head) = frozen
                .slice_items(start as usize, end as usize)
                .map_err(ServeError::Invalid)?;
            shards.push(Shard {
                start,
                items,
                head,
                cache: Mutex::new(ResultCache::new(config.engine.cache_capacity)),
            });
        }
        Ok(ShardedEngine {
            name: frozen.name,
            users: frozen.users,
            precision,
            map,
            shards,
            seen,
            num_users,
            num_items,
            config,
        })
    }

    /// The frozen snapshot's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of users in the frozen universe.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items in the frozen universe.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Storage precision of the frozen entity matrices.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of item shards (≤ the configured count when the catalog
    /// is smaller).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The contiguous item partition.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Scores shard `s` for `user` and returns the shard's top-`k`
    /// (global item ids), served through the shard's own cache. The
    /// full answer is `merge_top_k` over every shard's partial — see
    /// [`ShardedEngine::top_k`].
    ///
    /// # Errors
    /// [`ServeError::UserOutOfRange`]; [`ServeError::Invalid`] for a
    /// shard index out of range.
    pub fn partial_top_k(&self, s: usize, user: u32, k: usize) -> Result<ShardPartial, ServeError> {
        let shard = self
            .shards
            .get(s)
            .ok_or_else(|| shard_range_err(s, self.shards.len()))?;
        if (user as usize) >= self.num_users {
            return Err(ServeError::UserOutOfRange {
                user,
                num_users: self.num_users,
            });
        }
        metrics::indexed_counter("serve/shard", s, "requests").inc();
        let key_k = u32::try_from(k).unwrap_or(u32::MAX);
        let tag = self.precision.tag();
        // Bind the lookup so the cache guard (a temporary) is dropped
        // before the metrics counter takes the obs registry lock (L2).
        let cached = lock_unpoisoned(&shard.cache).get(user, key_k, tag);
        if let Some(recs) = cached {
            metrics::indexed_counter("serve/shard", s, "cache_hits").inc();
            return Ok(ShardPartial {
                recs,
                hit: true,
                candidates: 0,
            });
        }
        metrics::indexed_counter("serve/shard", s, "cache_misses").inc();
        let rows = shard.items.rows() as u32;
        // Candidate ids are shard-local rows; the seen filter and the
        // emitted recommendations translate through `shard.start`.
        let local: Vec<u32> = match self.seen.get(&user) {
            Some(mask) => (0..rows)
                .filter(|&l| !mask.contains(shard.start + l))
                .collect(),
            None => (0..rows).collect(),
        };
        let scores = score_ids(
            &self.users,
            &shard.items,
            &shard.head,
            user as usize,
            &local,
            self.config.engine.band,
            self.config.engine.threads,
        )?;
        let candidates = local.len();
        let recs = select_top_k(local.iter().map(|&l| shard.start + l).zip(scores), k);
        lock_unpoisoned(&shard.cache).insert(user, key_k, tag, recs.clone());
        Ok(ShardPartial {
            recs,
            hit: false,
            candidates,
        })
    }

    /// Top-K unseen recommendations for `user` — bit-identical to
    /// [`crate::FrozenEngine::top_k`] on the same frozen model at any
    /// shard count (`tests/properties.rs`).
    ///
    /// # Errors
    /// [`ServeError::UserOutOfRange`].
    pub fn top_k(&self, user: u32, k: usize) -> Result<Vec<Recommendation>, ServeError> {
        let mut partials = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            partials.push(self.partial_top_k(s, user, k)?.recs);
        }
        Ok(merge_top_k(&partials, k))
    }

    /// Marks `item` as seen for `user` and evicts the user's cached
    /// results from the *owning shard only* — other shards' partials
    /// are unaffected by the new exclusion and stay warm.
    ///
    /// # Errors
    /// [`ServeError::UserOutOfRange`].
    pub fn mark_seen(&mut self, user: u32, item: u32) -> Result<(), ServeError> {
        if (user as usize) >= self.num_users {
            return Err(ServeError::UserOutOfRange {
                user,
                num_users: self.num_users,
            });
        }
        let num_items = self.num_items as u32;
        self.seen
            .entry(user)
            .or_insert_with(|| SeenMask::new(num_items))
            .insert(item);
        if let Some(s) = self.map.shard_of(item) {
            if let Some(shard) = self.shards.get(s) {
                lock_unpoisoned(&shard.cache).evict_user(user);
            }
        }
        Ok(())
    }

    /// Invalidates every cached result of shard `s` in O(1) (epoch
    /// bump, lazily collected); other shards keep their warm entries.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] for a shard index out of range.
    pub fn invalidate_shard(&self, s: usize) -> Result<(), ServeError> {
        let shard = self
            .shards
            .get(s)
            .ok_or_else(|| shard_range_err(s, self.shards.len()))?;
        lock_unpoisoned(&shard.cache).bump_epoch();
        Ok(())
    }

    /// Replaces shard `s`'s item rows and head slice (e.g. after an
    /// incremental re-freeze of one catalog range) and invalidates
    /// exactly that shard's cache.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when the replacement's shape, precision,
    /// or (for dot heads) bias length disagrees with the shard's range.
    pub fn swap_shard(
        &mut self,
        s: usize,
        items: EntityMatrix,
        head: FrozenHead,
    ) -> Result<(), ServeError> {
        let range = self
            .map
            .range(s)
            .ok_or_else(|| shard_range_err(s, self.shards.len()))?;
        let rows = (range.end - range.start) as usize;
        if items.rows() != rows {
            return Err(ServeError::Invalid(format!(
                "shard {s} replacement has {} rows but the range {}..{} needs {rows}",
                items.rows(),
                range.start,
                range.end
            )));
        }
        if items.precision() != self.precision {
            return Err(ServeError::Invalid(format!(
                "shard {s} replacement is {} but the engine serves {}",
                items.precision().name(),
                self.precision.name()
            )));
        }
        if items.cols() != self.shards[s].items.cols() {
            return Err(ServeError::Invalid(format!(
                "shard {s} replacement has {} cols but the catalog has {}",
                items.cols(),
                self.shards[s].items.cols()
            )));
        }
        if let FrozenHead::DotBias { bias } = &head {
            if bias.len() != rows {
                return Err(ServeError::Invalid(format!(
                    "shard {s} replacement bias has {} entries but the range needs {rows}",
                    bias.len()
                )));
            }
        }
        let shard = &mut self.shards[s];
        shard.items = items;
        shard.head = head;
        lock_unpoisoned(&shard.cache).bump_epoch();
        Ok(())
    }

    /// Lifetime (hits, misses) of shard `s`'s result cache.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] for a shard index out of range.
    pub fn shard_cache_stats(&self, s: usize) -> Result<(u64, u64), ServeError> {
        let shard = self
            .shards
            .get(s)
            .ok_or_else(|| shard_range_err(s, self.shards.len()))?;
        let cache = lock_unpoisoned(&shard.cache);
        Ok((cache.hits(), cache.misses()))
    }

    /// Number of entries in shard `s`'s cache (may count stale entries
    /// not yet collected after an epoch bump).
    ///
    /// # Errors
    /// [`ServeError::Invalid`] for a shard index out of range.
    pub fn shard_cache_len(&self, s: usize) -> Result<usize, ServeError> {
        let shard = self
            .shards
            .get(s)
            .ok_or_else(|| shard_range_err(s, self.shards.len()))?;
        Ok(lock_unpoisoned(&shard.cache).len())
    }
}

/// Scheduler knobs for the sharded replay.
#[derive(Debug, Clone)]
pub struct ShardReplayConfig {
    /// Shard-worker threads (>= 1). Each shard is owned by exactly one
    /// worker (consistent-hash routing), so worker count changes
    /// neither bytes nor trace structure.
    pub workers: usize,
    /// Requests per micro-batch (>= 1). Each batch becomes one task
    /// per shard; larger batches amortize one shard's matrix residency
    /// over more requests.
    pub max_batch: usize,
    /// Bounded retries: per (shard, request) when the shard is
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

/// Points per worker on the consistent-hash ring.
const VIRTUAL_NODES: usize = 16;

/// splitmix64 — the repo's stock deterministic mixer (same constants as
/// the synthesis stream in `scenerec_core::freeze`).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A consistent-hash ring mapping shards to workers: each worker
/// contributes `virtual_nodes` splitmix64 points, a shard is owned by
/// the first point at or clockwise of its own hash. A worker's points
/// depend only on its own index, so growing the pool moves a shard's
/// ownership only *onto a new worker*, never between old ones
/// (stability pinned by `ring_assignments_are_stable_under_growth`).
#[derive(Debug)]
pub(crate) struct HashRing {
    points: Vec<(u64, usize)>,
}

impl HashRing {
    pub(crate) fn new(workers: usize, virtual_nodes: usize) -> Self {
        let mut points: Vec<(u64, usize)> = (0..workers)
            .flat_map(|w| {
                (0..virtual_nodes).map(move |v| (splitmix64(((w as u64) << 32) | v as u64), w))
            })
            .collect();
        points.sort_unstable();
        HashRing { points }
    }

    pub(crate) fn owner_of(&self, shard: usize) -> usize {
        if self.points.is_empty() {
            return 0;
        }
        let h = splitmix64((shard as u64) ^ 0xdead_beef_cafe_f00d);
        let i = self.points.partition_point(|p| p.0 < h);
        self.points[i % self.points.len()].1
    }
}

/// A (micro-batch × shard) task: served requests `start..end` against
/// `shard`.
#[derive(Debug, Clone, Copy)]
struct ShardTask {
    start: usize,
    end: usize,
    shard: usize,
}

/// One request × shard outcome awaiting assembly.
type Cell = Result<ShardPartial, String>;

/// The sharded engine's pool work: one task queue per worker, filled by
/// consistent-hash routing, each worker draining only its own. Result
/// slot `pos * num_shards + shard` holds one (request, shard) cell.
/// Critical sections only move values between containers, so poisoned
/// locks are safe to recover.
struct Scatter<'a> {
    engine: &'a ShardedEngine,
    /// The served requests, in serving order.
    requests: &'a [Request],
    config: &'a ShardReplayConfig,
    injector: &'a Injector,
    queues: Vec<Mutex<VecDeque<Claim<ShardTask>>>>,
}

/// Replays a request log through a [`ShardedEngine`] and returns
/// responses in request order — byte-identical to the single-engine
/// [`crate::replay`] on the same frozen model, at any shard count and
/// any worker count.
pub fn replay_sharded(
    engine: &ShardedEngine,
    requests: &[Request],
    config: &ShardReplayConfig,
) -> Vec<Response> {
    let options = ReplayOptions::default();
    replay_sharded_with(engine, &TimedRequest::burst(requests), config, &options).responses
}

/// Replays a timed arrival log through a [`ShardedEngine`] under
/// `options` — the sharded twin of [`crate::replay_with`], with the
/// same exactly-once, typed-outcome and worker-count-invariance
/// contract.
///
/// * **Admission** runs first, as a pure function of (arrival order,
///   capacities, lanes); shed arrivals are answered with typed overload
///   responses, and admitted requests flow through the scatter-gather in
///   the plan's global dequeue order, so the task queues only ever hold
///   work the gate bounded.
/// * **Faults**: a panicked worker's task re-enters its owner's queue;
///   a lost shard degrades the response and names itself in
///   [`Response::partial_shards`], it never silently truncates — see the
///   module docs.
/// * **Traces**: one [`TraceData`](scenerec_obs::TraceData) per
///   arrival. Below the shared root / admission / `serve.queue`
///   prefix, the batch span nests one
///   `serve.shard` span per shard (fields: `shard`, `hit`, `candidates`
///   or `error`) and a final `serve.merge` span. The coordinator
///   assembles every tree in deterministic shard order, so span
///   *structure* is identical at any worker count — pinned via
///   `structure_digest` in `tests/serving_parity.rs`.
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
    let workers = config.workers.max(1);
    let max_batch = config.max_batch.max(1);
    let num_shards = engine.num_shards();
    let ring = HashRing::new(workers, VIRTUAL_NODES);

    // Batch-major × shard task order: all of a batch's shard tasks are
    // enqueued together, and within one owner's queue a shard's tasks
    // appear in batch order — the FIFO that makes per-shard cache
    // evolution worker-count invariant.
    let mut queues: Vec<VecDeque<Claim<ShardTask>>> =
        (0..workers).map(|_| VecDeque::new()).collect();
    for (start, end) in pool::batches(requests.len(), max_batch) {
        for shard in 0..num_shards {
            queues[ring.owner_of(shard)].push_back(Claim::fresh(ShardTask { start, end, shard }));
        }
    }
    let scatter = Scatter {
        engine,
        requests: &requests,
        config,
        injector: &options.injector,
        queues: queues.into_iter().map(Mutex::new).collect(),
    };
    let cells = pool::run(
        &scatter,
        workers,
        config.max_retries,
        &options.injector,
        vec![None; requests.len() * num_shards],
    );

    // Gather single-threaded, in serving order, walking shards in index
    // order — which is what makes sharded trace structure trivially
    // worker-count invariant.
    let mut responses = shed_slots(arrivals, plan.as_ref());
    let mut traces = options.trace.then(|| open_traces(arrivals, plan.as_ref()));
    let mut cells = cells.into_iter();
    for (pos, (&idx, req)) in order.iter().zip(&requests).enumerate() {
        let (response, infos) = gather(req, cells.by_ref().take(num_shards));
        if let Some(t) = traces.as_mut().and_then(|ts| ts[idx].as_mut()) {
            let batch_start = pos - pos % max_batch;
            let batch_end = (batch_start + max_batch).min(requests.len());
            trace_gather(t, (batch_start, batch_end), &infos, response.recs.len());
        }
        debug_assert!(responses[idx].is_none(), "response {idx} served twice");
        responses[idx] = Some(response);
    }
    Replay {
        responses: collect_responses(responses),
        traces: traces.map_or_else(Vec::new, finish_traces),
        plan,
    }
}

/// One request's shard outcome for its trace: `(hit, candidates)` or
/// the shard's error.
type ShardInfo = Result<(bool, usize), String>;

/// Merges one request's shard cells into its response.
fn gather(req: &Request, row: impl Iterator<Item = Option<Cell>>) -> (Response, Vec<ShardInfo>) {
    let mut partials: Vec<Vec<Recommendation>> = Vec::new();
    let mut infos: Vec<ShardInfo> = Vec::new();
    let mut missing: Vec<u32> = Vec::new();
    let mut first_err: Option<String> = None;
    for (s, cell) in row.enumerate() {
        // Defensive: supervision guarantees every cell is filled; an
        // empty one is answered, not ignored.
        match cell.unwrap_or_else(|| Err(format!("shard {s} response missing"))) {
            Ok(p) => {
                infos.push(Ok((p.hit, p.candidates)));
                partials.push(p.recs);
            }
            Err(e) => {
                first_err.get_or_insert_with(|| e.clone());
                infos.push(Err(e));
                missing.push(s as u32);
            }
        }
    }
    let response = if partials.is_empty() {
        // Every shard failed identically (e.g. an out-of-range user):
        // surface the lowest shard's error as the request-level error,
        // matching the single-engine text.
        Response::error(req, first_err.unwrap_or_else(|| "no shards".to_owned()))
    } else if !missing.is_empty() {
        metrics::counter("serve/shard_degraded").inc();
        Response {
            degraded: true,
            partial_shards: missing,
            ..Response::ok(req, merge_top_k(&partials, req.k))
        }
    } else {
        Response::ok(req, merge_top_k(&partials, req.k))
    };
    (response, infos)
}

/// Closes a request's open `serve.queue` span and records the batch,
/// one `serve.shard` span per shard, and the merge.
fn trace_gather(t: &mut Trace, (start, end): (usize, usize), infos: &[ShardInfo], merged: usize) {
    t.end_top(); // serve.queue: the wait is over
    let b = t.start_span("serve.batch");
    t.add_field(b, "batch_start", FieldValue::Int(start as i64));
    t.add_field(b, "batch_end", FieldValue::Int(end as i64));
    for (s, info) in infos.iter().enumerate() {
        let sp = t.start_span("serve.shard");
        t.add_field(sp, "shard", FieldValue::Int(s as i64));
        match info {
            Ok((hit, candidates)) => {
                t.add_field(sp, "hit", FieldValue::Bool(*hit));
                if !hit {
                    t.add_field(sp, "candidates", FieldValue::Int(*candidates as i64));
                }
            }
            Err(e) => t.add_field(sp, "error", FieldValue::Str(e.clone())),
        }
        t.end_span(sp);
    }
    let m = t.start_span("serve.merge");
    t.add_field(m, "merged", FieldValue::Int(merged as i64));
    t.end_span(m);
    t.end_span(b);
}

impl Scatter<'_> {
    /// Serves one (request, shard) pair through the retry ladder on the
    /// shard's injected I/O point `serve/shard/{s}`. Exhausted retries
    /// fail *this shard's cell only* — assembly decides whether the
    /// request degrades or errors.
    fn serve_cell(&self, shard: usize, req: &Request) -> Cell {
        let point = format!("serve/shard/{shard}");
        let mut attempt = 0u32;
        loop {
            match self.injector.io(&point) {
                Ok(()) => {
                    return self
                        .engine
                        .partial_top_k(shard, req.user, req.k)
                        .map_err(|e| e.to_string())
                }
                Err(e) => {
                    if attempt < self.config.max_retries {
                        metrics::counter("serve/shard_retries").inc();
                        metrics::counter("serve/shard_backoff_ticks")
                            .add(Backoff::default().ticks(attempt));
                        attempt += 1;
                        continue;
                    }
                    return Err(format!(
                        "shard {shard} unavailable after {attempt} retries: {e}"
                    ));
                }
            }
        }
    }
}

impl Work for Scatter<'_> {
    type Task = ShardTask;
    type Out = Cell;
    type Local = Arc<Histogram>;

    const RESPAWNS: &'static str = "serve/shard_worker_respawns";
    const PANIC_POINT: &'static str = "serve/shard_worker";
    const CLAIM_EVENT: &'static str = "serve.shard.claim";
    const PANIC_MESSAGE: &'static str = "shard worker panicked; respawning";

    fn local(&self) -> Arc<Histogram> {
        metrics::histogram("serve/shard_task_ns", &latency_edges())
    }

    fn claim(&self, slot: usize, _task_hist: &mut Arc<Histogram>) -> Option<Claim<ShardTask>> {
        lock_unpoisoned(&self.queues[slot]).pop_front()
    }

    /// Requeues at the front of the *same owner's* queue so the shard's
    /// task stream stays FIFO in batch order.
    fn requeue(&self, slot: usize, claim: Claim<ShardTask>) {
        lock_unpoisoned(&self.queues[slot]).push_front(claim);
    }

    fn serve_task(&self, task: ShardTask, task_hist: &mut Arc<Histogram>) -> Vec<(usize, Cell)> {
        let num_shards = self.engine.num_shards();
        let watch = Stopwatch::start();
        let served = (task.start..task.end)
            .map(|pos| {
                let cell = self.serve_cell(task.shard, &self.requests[pos]);
                (pos * num_shards + task.shard, cell)
            })
            .collect();
        task_hist.observe(watch.elapsed_ns() as f64);
        served
    }

    fn fail_task(&self, task: ShardTask, attempts: u32) -> Vec<(usize, Cell)> {
        let num_shards = self.engine.num_shards();
        (task.start..task.end)
            .map(|pos| {
                let error = format!(
                    "shard {} worker failed {attempts} times serving this batch",
                    task.shard
                );
                (pos * num_shards + task.shard, Err(error))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FrozenEngine;
    use crate::scheduler::{replay, responses_to_json, ReplayConfig};
    use scenerec_core::FrozenModel;
    use scenerec_faults::{Fault, FaultPlan, Trigger};
    use scenerec_tensor::Matrix;

    /// A pseudo-random dot model with heavy score ties: embeddings are
    /// drawn from a tiny alphabet so distinct items collide on exact
    /// scores, including runs straddling every shard boundary.
    fn tie_heavy_frozen(num_users: usize, num_items: usize, dim: usize) -> FrozenModel {
        let mut state = 0xace1u64;
        let mut next = move || {
            state = splitmix64(state);
            // 4-value alphabet => many exact collisions.
            ((state % 4) as f32 - 1.5) * 0.5
        };
        let users = Matrix::from_vec(
            num_users,
            dim,
            (0..num_users * dim).map(|_| next()).collect(),
        )
        .unwrap();
        let items = Matrix::from_vec(
            num_items,
            dim,
            (0..num_items * dim).map(|_| next()).collect(),
        )
        .unwrap();
        let bias = (0..num_items)
            .map(|i| ((i % 3) as f32 - 1.0) * 0.125)
            .collect();
        FrozenModel::dense("ties", users, items, FrozenHead::DotBias { bias })
    }

    fn supervised(
        engine: &ShardedEngine,
        requests: &[Request],
        config: &ShardReplayConfig,
        injector: Injector,
    ) -> Vec<Response> {
        let options = ReplayOptions {
            injector,
            ..ReplayOptions::default()
        };
        replay_sharded_with(engine, &TimedRequest::burst(requests), config, &options).responses
    }

    fn seen_for(num_users: usize) -> Vec<Vec<u32>> {
        (0..num_users)
            .map(|u| ((u as u32)..(u as u32) + 3).collect())
            .collect()
    }

    #[test]
    fn sharded_top_k_is_bit_identical_to_single_engine() {
        let num_users = 7;
        let frozen = tie_heavy_frozen(num_users, 101, 6);
        let seen = seen_for(num_users);
        let single = FrozenEngine::new(frozen.clone(), &seen, EngineConfig::default()).unwrap();
        for shards in [1usize, 2, 4, 8] {
            let sharded =
                ShardedEngine::new(frozen.clone(), &seen, ShardedConfig::with_shards(shards))
                    .unwrap();
            assert_eq!(sharded.num_shards(), shards);
            for user in 0..num_users as u32 {
                for k in [0usize, 1, 5, 101, 200] {
                    let want = single.top_k(user, k).unwrap();
                    let got = sharded.top_k(user, k).unwrap();
                    let wb: Vec<(u32, u32)> = want
                        .iter()
                        .map(|r| (r.item.raw(), r.score.to_bits()))
                        .collect();
                    let gb: Vec<(u32, u32)> = got
                        .iter()
                        .map(|r| (r.item.raw(), r.score.to_bits()))
                        .collect();
                    assert_eq!(wb, gb, "shards={shards} user={user} k={k}");
                }
            }
        }
    }

    #[test]
    fn all_seen_mask_yields_empty_results_at_every_shard_count() {
        let frozen = tie_heavy_frozen(2, 24, 4);
        let seen = vec![(0..24).collect::<Vec<u32>>(), Vec::new()];
        for shards in [1usize, 3, 8] {
            let engine =
                ShardedEngine::new(frozen.clone(), &seen, ShardedConfig::with_shards(shards))
                    .unwrap();
            assert!(engine.top_k(0, 10).unwrap().is_empty());
            assert_eq!(engine.top_k(1, 10).unwrap().len(), 10);
        }
    }

    #[test]
    fn out_of_range_requests_error_like_the_single_engine() {
        let engine =
            ShardedEngine::new_unseen(tie_heavy_frozen(3, 12, 4), ShardedConfig::with_shards(4))
                .unwrap();
        let err = engine.top_k(99, 1).unwrap_err();
        assert!(matches!(err, ServeError::UserOutOfRange { user: 99, .. }));
        assert!(matches!(
            engine.partial_top_k(9, 0, 1),
            Err(ServeError::Invalid(_))
        ));
    }

    /// Invalidating one shard leaves every other shard's warm entries
    /// hitting — the per-shard-epoch regression test for what used to
    /// require an engine-global cache clear.
    #[test]
    fn invalidate_shard_spares_other_shards_caches() {
        let engine =
            ShardedEngine::new_unseen(tie_heavy_frozen(3, 40, 4), ShardedConfig::with_shards(4))
                .unwrap();
        engine.top_k(1, 5).unwrap(); // cold: 4 misses
        engine.top_k(1, 5).unwrap(); // warm: 4 hits
        for s in 0..4 {
            assert_eq!(engine.shard_cache_stats(s).unwrap(), (1, 1), "shard {s}");
        }
        engine.invalidate_shard(2).unwrap();
        engine.top_k(1, 5).unwrap();
        for s in 0..4 {
            let want = if s == 2 { (1, 2) } else { (2, 1) };
            assert_eq!(engine.shard_cache_stats(s).unwrap(), want, "shard {s}");
        }
    }

    #[test]
    fn mark_seen_evicts_only_the_owning_shard() {
        let frozen = tie_heavy_frozen(3, 40, 4);
        let mut engine =
            ShardedEngine::new_unseen(frozen.clone(), ShardedConfig::with_shards(4)).unwrap();
        engine.top_k(0, 40).unwrap();
        // Item 15 lives in shard 1 (ranges of 10).
        assert_eq!(engine.shard_map().shard_of(15), Some(1));
        engine.mark_seen(0, 15).unwrap();
        engine.top_k(0, 40).unwrap();
        for s in 0..4 {
            let want = if s == 1 { (0, 2) } else { (1, 1) };
            assert_eq!(engine.shard_cache_stats(s).unwrap(), want, "shard {s}");
        }
        // And the exclusion is live: a single-engine oracle agrees.
        let single =
            FrozenEngine::new(frozen, &[vec![15], vec![], vec![]], EngineConfig::default())
                .unwrap();
        assert_eq!(engine.top_k(0, 40).unwrap(), single.top_k(0, 40).unwrap());
    }

    #[test]
    fn swap_shard_serves_the_new_slice_and_validates_shape() {
        let frozen = tie_heavy_frozen(3, 40, 4);
        let mut engine =
            ShardedEngine::new_unseen(frozen.clone(), ShardedConfig::with_shards(4)).unwrap();
        engine.top_k(0, 10).unwrap();
        // Replace shard 3 (items 30..40) with a bias-boosted head slice:
        // those items now dominate any other shard's scores.
        let (items, _) = frozen.slice_items(30, 40).unwrap();
        engine
            .swap_shard(
                3,
                items,
                FrozenHead::DotBias {
                    bias: vec![1000.0; 10],
                },
            )
            .unwrap();
        let top = engine.top_k(0, 10).unwrap();
        assert!(
            top.iter().all(|r| r.item.raw() >= 30),
            "swapped shard dominates: {top:?}"
        );
        // Other shards answered the second request from their caches.
        for s in 0..3 {
            assert_eq!(engine.shard_cache_stats(s).unwrap(), (1, 1), "shard {s}");
        }
        assert_eq!(engine.shard_cache_stats(3).unwrap(), (0, 2));

        let (wrong, _) = frozen.slice_items(0, 5).unwrap();
        assert!(engine
            .swap_shard(3, wrong, FrozenHead::DotBias { bias: vec![0.0; 5] })
            .is_err());
        let (ok_rows, _) = frozen.slice_items(0, 10).unwrap();
        assert!(engine
            .swap_shard(3, ok_rows, FrozenHead::DotBias { bias: vec![0.0; 3] })
            .is_err());
    }

    #[test]
    fn ring_is_deterministic_and_stable_under_growth() {
        let a = HashRing::new(4, 16);
        let b = HashRing::new(4, 16);
        for shard in 0..64 {
            assert_eq!(a.owner_of(shard), b.owner_of(shard));
        }
        let one = HashRing::new(1, 16);
        for shard in 0..64 {
            assert_eq!(one.owner_of(shard), 0);
        }
        // Consistent-hash stability: adding a worker only ever moves a
        // shard *to the new worker*, never between existing ones.
        for w in 1..6usize {
            let small = HashRing::new(w, 16);
            let grown = HashRing::new(w + 1, 16);
            for shard in 0..64 {
                let (before, after) = (small.owner_of(shard), grown.owner_of(shard));
                assert!(
                    after == before || after == w,
                    "shard {shard}: {before} -> {after} with worker {w} added"
                );
            }
        }
    }

    #[test]
    fn replay_sharded_matches_single_engine_replay_bytes() {
        let num_users = 5;
        let frozen = tie_heavy_frozen(num_users, 60, 4);
        let seen = seen_for(num_users);
        let single = FrozenEngine::new(frozen.clone(), &seen, EngineConfig::default()).unwrap();
        let requests: Vec<Request> = (0..30u32)
            .map(|i| Request {
                user: i % num_users as u32,
                k: 1 + (i as usize % 7),
            })
            .collect();
        let want = responses_to_json(&replay(&single, &requests, &ReplayConfig::default()));
        for shards in [1usize, 2, 4] {
            let engine =
                ShardedEngine::new(frozen.clone(), &seen, ShardedConfig::with_shards(shards))
                    .unwrap();
            for workers in [1usize, 2, 4] {
                let got = responses_to_json(&replay_sharded(
                    &engine,
                    &requests,
                    &ShardReplayConfig {
                        workers,
                        max_batch: 8,
                        ..ShardReplayConfig::default()
                    },
                ));
                assert_eq!(want, got, "shards={shards} workers={workers}");
            }
        }
    }

    /// One shard past its retry budget degrades the response — merged
    /// survivors, `degraded` flag, the dead shard named — and every
    /// shard down becomes a typed error, never a silent truncation.
    #[test]
    fn shard_outage_degrades_and_names_the_missing_range() {
        let engine =
            ShardedEngine::new_unseen(tie_heavy_frozen(3, 40, 4), ShardedConfig::with_shards(4))
                .unwrap();
        let requests = [Request { user: 0, k: 40 }, Request { user: 1, k: 5 }];
        let config = ShardReplayConfig::default();

        let plan = FaultPlan::new(7).inject("serve/shard/1", Trigger::Always, Fault::Io);
        let out = supervised(&engine, &requests, &config, Injector::new(plan));
        for r in &out {
            assert!(r.degraded);
            assert!(r.error.is_none());
            assert_eq!(r.partial_shards, vec![1]);
            // Survivors only: nothing from items 10..20, all else ranked.
            assert!(r.recs.iter().all(|x| !(10..20).contains(&x.item.raw())));
        }
        assert_eq!(out[0].recs.len(), 30);

        let mut all_down = FaultPlan::new(7);
        for s in 0..4 {
            all_down = all_down.inject(&format!("serve/shard/{s}"), Trigger::Always, Fault::Io);
        }
        let out = supervised(&engine, &requests, &config, Injector::new(all_down));
        for r in &out {
            assert!(!r.degraded);
            assert!(r.recs.is_empty());
            assert!(r.partial_shards.is_empty());
            let msg = r.error.as_deref().unwrap();
            assert!(msg.starts_with("shard 0 unavailable"), "{msg}");
        }
    }

    #[test]
    fn unknown_user_errors_match_single_engine_text_through_replay() {
        let frozen = tie_heavy_frozen(3, 20, 4);
        let single = FrozenEngine::new(
            frozen.clone(),
            &vec![Vec::new(); 3],
            EngineConfig::default(),
        )
        .unwrap();
        let sharded = ShardedEngine::new_unseen(frozen, ShardedConfig::with_shards(4)).unwrap();
        let requests = [Request { user: 77, k: 3 }];
        let want = replay(&single, &requests, &ReplayConfig::default());
        let got = replay_sharded(&sharded, &requests, &ShardReplayConfig::default());
        assert_eq!(want[0].error, got[0].error);
        assert_eq!(responses_to_json(&want), responses_to_json(&got));
    }

    #[test]
    fn traced_structure_is_pinned_across_worker_counts() {
        use scenerec_obs::trace::structure_digest;

        let engine =
            ShardedEngine::new_unseen(tie_heavy_frozen(4, 30, 4), ShardedConfig::with_shards(3))
                .unwrap();
        let requests: Vec<Request> = (0..10u32).map(|i| Request { user: i % 4, k: 4 }).collect();
        let digest_at = |workers: usize| {
            let traces = replay_sharded_with(
                &engine,
                &TimedRequest::burst(&requests),
                &ShardReplayConfig {
                    workers,
                    max_batch: 4,
                    ..ShardReplayConfig::default()
                },
                &ReplayOptions {
                    trace: true,
                    ..ReplayOptions::default()
                },
            )
            .traces;
            assert_eq!(traces.len(), requests.len());
            structure_digest(&traces)
        };
        let want = digest_at(1);
        assert_eq!(want, digest_at(2));
        assert_eq!(want, digest_at(4));
    }
}
