//! The scatter half of a replay: every (request, shard) cell served on
//! supervised, shard-pinned workers.
//!
//! [`scatter`] chops the served requests into micro-batches and expands
//! each into one task per shard. Shard `s` belongs to worker
//! `s % workers`, and a worker drains only its own FIFO queue, so each
//! shard's tasks run in batch order on one thread: its cache hit/miss
//! sequence, counters, fault-point invocations and stale fallbacks are
//! the same at any worker count. A replay therefore keeps
//! `min(shards, workers)` workers busy.
//!
//! The pool owns everything about *surviving* a task:
//!
//! * a per-worker in-flight registry — a worker records its claim before
//!   touching it, so a panic leaves the orphaned task behind;
//! * the `thread::scope` spawn / join / respawn loop;
//! * the `Warn` event on every reaped worker, carrying a full
//!   `scenerec_obs::flight` dump;
//! * requeue-to-front of the orphan on its owner's queue, or — past the
//!   retry budget — error cells, so a task is never lost;
//! * the atomic commit: a task's cells land in the index-addressed
//!   slots all at once, after its last fallible step, so a crashed task
//!   contributes nothing and no slot is ever filled twice.
//!
//! Each cell runs the retry ladder on its shard's injected I/O point
//! `serve/shard/{s}`: failed attempts retry with deterministic backoff,
//! and past the budget the cell answers from the replay's last good
//! partial for that (shard, user, k) — stale equals fresh bit-for-bit,
//! the engine is pure. Only without one does the shard fail.

use crate::scheduler::{latency_edges, Request, ShardReplayConfig};
use crate::shard::{ShardPartial, ShardedEngine};
use scenerec_core::Recommendation;
use scenerec_faults::{Backoff, Injector};
use scenerec_obs::metrics::Histogram;
use scenerec_obs::{flight, lock_unpoisoned, metrics, obs_event, Level, Stopwatch};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, PoisonError};

/// One (request, shard) outcome awaiting assembly.
#[derive(Debug, Clone)]
pub(crate) enum Cell {
    /// The shard's partial, from its cache or freshly scored.
    Served(ShardPartial),
    /// The shard was down; its last good partial from this replay.
    Stale(Vec<Recommendation>),
    /// The shard failed: an engine error, an outage with no stale
    /// partial, or a worker that died too often.
    Failed(String),
}

/// A (micro-batch × shard) task: served requests `start..end` against
/// `shard`.
#[derive(Debug, Clone, Copy)]
struct ShardTask {
    start: usize,
    end: usize,
    shard: usize,
}

/// A claimed task plus how many times a panicking worker has already
/// handed it back.
#[derive(Debug, Clone, Copy)]
struct Claim {
    task: ShardTask,
    requeues: u32,
}

/// One shard's last good partial per (user, k).
type StaleMap = BTreeMap<(u32, u32), Vec<Recommendation>>;

struct Pool<'a> {
    engine: &'a ShardedEngine,
    /// The served requests, in serving order.
    requests: &'a [Request],
    config: &'a ShardReplayConfig,
    injector: &'a Injector,
    /// One FIFO per worker, holding the tasks of the shards it owns.
    queues: Vec<Mutex<VecDeque<Claim>>>,
    /// One stale map per shard, touched only by the shard's owner
    /// worker — the degraded-mode fallback. Deliberately not a view of
    /// the shard's `ResultCache`: this map
    /// lives for one replay and never evicts, while the cache persists
    /// across replays and evicts LRU entries, so serving outages from
    /// the cache would change which requests degrade and which fail.
    stale: Vec<Mutex<StaleMap>>,
    /// Slot `pos * num_shards + shard` holds one (request, shard) cell.
    slots: Mutex<Vec<Option<Cell>>>,
    /// Per-worker in-flight registry; a respawned worker reuses its
    /// predecessor's slot (the supervisor has already emptied it).
    registry: Vec<Mutex<Option<Claim>>>,
}

/// Serves every (request, shard) cell of `requests` on
/// `min(shards, config.workers)` supervised workers, replacing any that
/// panic until the queues are empty. Returns the cells indexed
/// `pos * num_shards + shard`.
pub(crate) fn scatter(
    engine: &ShardedEngine,
    requests: &[Request],
    config: &ShardReplayConfig,
    injector: &Injector,
) -> Vec<Option<Cell>> {
    let num_shards = engine.num_shards();
    let workers = config.workers.clamp(1, num_shards.max(1));
    let max_batch = config.max_batch.max(1);
    // Batch-major × shard task order: within one owner's queue a shard's
    // tasks appear in batch order — the FIFO that makes per-shard cache
    // evolution worker-count invariant.
    let mut queues = vec![VecDeque::new(); workers];
    for start in (0..requests.len()).step_by(max_batch) {
        let end = (start + max_batch).min(requests.len());
        for shard in 0..num_shards {
            let task = ShardTask { start, end, shard };
            queues[shard % workers].push_back(Claim { task, requeues: 0 });
        }
    }
    let pool = Pool {
        engine,
        requests,
        config,
        injector,
        queues: queues.into_iter().map(Mutex::new).collect(),
        stale: (0..num_shards)
            .map(|_| Mutex::new(BTreeMap::new()))
            .collect(),
        slots: Mutex::new(vec![None; requests.len() * num_shards]),
        registry: (0..workers).map(|_| Mutex::new(None)).collect(),
    };
    std::thread::scope(|scope| {
        let pool = &pool;
        let spawn = |slot: usize| scope.spawn(move || pool.worker_loop(slot));
        let mut live: Vec<_> = (0..workers).map(|slot| (slot, spawn(slot))).collect();
        while let Some((slot, handle)) = live.pop() {
            if handle.join().is_ok() {
                continue;
            }
            pool.recover(slot);
            live.push((slot, spawn(slot)));
        }
    });
    pool.slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
}

impl Pool<'_> {
    /// One worker: claim, register in-flight, serve, commit all of the
    /// task's cells atomically, clear the registration.
    fn worker_loop(&self, slot: usize) {
        let latency = metrics::histogram("serve/latency_ns", &latency_edges());
        while let Some(claim) = self.claim(slot) {
            *lock_unpoisoned(&self.registry[slot]) = Some(claim);
            flight::record(
                "serve.shard.claim",
                format!("{:?} requeues={}", claim.task, claim.requeues),
            );
            // The injected crash fires after registration and before any
            // serving, so the supervisor recovers the whole task and no
            // half-served state leaks out.
            self.injector.panic_point("serve/shard_worker");
            let served = self.serve_task(claim.task, &latency);
            self.commit(served);
            *lock_unpoisoned(&self.registry[slot]) = None;
        }
    }

    /// The next task on worker `slot`'s own queue; the queue guard is
    /// dropped before the task is served.
    fn claim(&self, slot: usize) -> Option<Claim> {
        lock_unpoisoned(&self.queues[slot]).pop_front()
    }

    /// Reaps the panicked worker in `slot`: requeues its in-flight task
    /// at the front of its own queue — so the shard's task stream stays
    /// FIFO in batch order — or fails it once the retry budget is spent.
    fn recover(&self, slot: usize) {
        metrics::counter("serve/shard_worker_respawns").inc();
        let orphan = lock_unpoisoned(&self.registry[slot]).take();
        obs_event!(
            Level::Warn, "serve", "shard worker panicked; respawning";
            "slot" => slot as u64,
            "orphan" => orphan.map(|c| format!("{:?}", c.task)).unwrap_or_default(),
            "dump" => flight::dump_string(),
        );
        let Some(Claim { task, requeues }) = orphan else {
            return;
        };
        if requeues < self.config.max_retries {
            let claim = Claim {
                task,
                requeues: requeues + 1,
            };
            lock_unpoisoned(&self.queues[slot]).push_front(claim);
        } else {
            let error = format!(
                "shard {} worker failed {} times serving this batch",
                task.shard,
                requeues + 1
            );
            let num_shards = self.engine.num_shards();
            self.commit(
                (task.start..task.end)
                    .map(|pos| (pos * num_shards + task.shard, Cell::Failed(error.clone())))
                    .collect(),
            );
        }
    }

    fn commit(&self, served: Vec<(usize, Cell)>) {
        let mut slots = lock_unpoisoned(&self.slots);
        for (idx, cell) in served {
            debug_assert!(slots[idx].is_none(), "slot {idx} served twice");
            slots[idx] = Some(cell);
        }
    }

    /// Serves a task's cells, one `serve/latency_ns` observation each.
    fn serve_task(&self, task: ShardTask, latency: &Histogram) -> Vec<(usize, Cell)> {
        let num_shards = self.engine.num_shards();
        let point = format!("serve/shard/{}", task.shard);
        (task.start..task.end)
            .map(|pos| {
                let watch = Stopwatch::start();
                let cell = self.serve_cell(task.shard, &point, &self.requests[pos]);
                latency.observe(watch.elapsed_ns() as f64);
                (pos * num_shards + task.shard, cell)
            })
            .collect()
    }

    /// Serves one (request, shard) cell through the retry ladder on the
    /// shard's injected I/O point `point` (`serve/shard/{s}`). Exhausted
    /// retries answer from the shard's stale partial, else fail *this
    /// cell only* — assembly decides whether the request degrades or
    /// errors.
    fn serve_cell(&self, shard: usize, point: &str, req: &Request) -> Cell {
        let key = (req.user, u32::try_from(req.k).unwrap_or(u32::MAX));
        let mut attempt = 0u32;
        while let Err(e) = self.injector.io(point) {
            if attempt >= self.config.max_retries {
                // Bind the lookup so the stale-map guard (a temporary)
                // is dropped before the metrics counter takes the obs
                // registry lock (L2).
                let stale = lock_unpoisoned(&self.stale[shard]).get(&key).cloned();
                let Some(recs) = stale else {
                    return Cell::Failed(format!(
                        "shard {shard} unavailable after {attempt} retries: {e}"
                    ));
                };
                metrics::counter("serve/shard_stale_hits").inc();
                return Cell::Stale(recs);
            }
            metrics::counter("serve/shard_retries").inc();
            metrics::counter("serve/shard_backoff_ticks").add(Backoff::default().ticks(attempt));
            attempt += 1;
        }
        match self.engine.partial_top_k(shard, req.user, req.k) {
            Ok(partial) => {
                // Only an armed injector can fail a probe, so only then
                // can anything read the stale map.
                if self.injector.is_enabled() {
                    lock_unpoisoned(&self.stale[shard]).insert(key, partial.recs.clone());
                }
                Cell::Served(partial)
            }
            Err(e) => Cell::Failed(e.to_string()),
        }
    }
}
