//! The supervised worker pool both schedulers run on.
//!
//! A [`Work`] implementation owns its queues and knows how to serve one
//! claimed task; the pool owns everything about *surviving* a task:
//!
//! * a per-worker in-flight registry — a worker records its claim before
//!   touching it, so a panic leaves the orphaned task behind;
//! * the `thread::scope` spawn / join / respawn loop;
//! * the `Warn` event on every reaped worker, carrying a full
//!   `scenerec_obs::flight` dump;
//! * requeue-to-front of the orphan, or — past the work's retry budget —
//!   the work's error outputs, so a task is never lost;
//! * the atomic commit: a task's outputs land in the index-addressed
//!   result slots all at once, after its last fallible step, so a
//!   crashed task contributes nothing and no slot is ever filled twice.
//!
//! Two implementations exist: the single engine's weighted fast/cold
//! lanes ([`crate::scheduler`]) and the sharded engine's
//! consistent-hash owner queues ([`crate::shard`]).

use scenerec_faults::Injector;
use scenerec_obs::{flight, lock_unpoisoned, metrics, obs_event, Level};
use std::fmt::Debug;
use std::sync::{Mutex, PoisonError};

/// A claimed task plus how many times a panicking worker has already
/// handed it back.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Claim<T> {
    pub(crate) task: T,
    pub(crate) requeues: u32,
}

impl<T> Claim<T> {
    /// A task that has never been handed back.
    pub(crate) fn fresh(task: T) -> Self {
        Claim { task, requeues: 0 }
    }
}

/// One scheduler's half of the pool: its queues, its serve step, and
/// the names its telemetry and fault point go by.
pub(crate) trait Work: Sync {
    /// What a worker claims from the queues; its `Debug` form labels
    /// claims in the flight recorder and the supervisor's warnings.
    type Task: Copy + Send + Debug;
    /// One result slot's content.
    type Out: Send;
    /// Per-worker state (round-robin shares, metric handles), built
    /// fresh by every spawned or respawned worker.
    type Local;

    /// Counter bumped for every reaped worker.
    const RESPAWNS: &'static str;
    /// The injected-crash point probed after a claim is registered.
    const PANIC_POINT: &'static str;
    /// Flight-recorder label for a claim.
    const CLAIM_EVENT: &'static str;
    /// Message of the supervisor's `Warn` event.
    const PANIC_MESSAGE: &'static str;

    fn local(&self) -> Self::Local;
    /// The next task for worker `slot`, or `None` when it has no more.
    fn claim(&self, slot: usize, local: &mut Self::Local) -> Option<Claim<Self::Task>>;
    /// Puts a panicked worker's task back at the front of the queue it
    /// came from.
    fn requeue(&self, slot: usize, claim: Claim<Self::Task>);
    /// Serves a task: `(slot index, output)` pairs.
    fn serve_task(&self, task: Self::Task, local: &mut Self::Local) -> Vec<(usize, Self::Out)>;
    /// Error outputs for a task whose worker died `attempts` times.
    fn fail_task(&self, task: Self::Task, attempts: u32) -> Vec<(usize, Self::Out)>;
}

/// Splits `0..count` into consecutive `(start, end)` ranges of at most
/// `max_batch` positions.
pub(crate) fn batches(count: usize, max_batch: usize) -> impl Iterator<Item = (usize, usize)> {
    let max_batch = max_batch.max(1);
    (0..count)
        .step_by(max_batch)
        .map(move |start| (start, (start + max_batch).min(count)))
}

struct Pool<'a, W: Work> {
    work: &'a W,
    /// Requeues a panicked task survives before it is failed.
    max_retries: u32,
    injector: &'a Injector,
    slots: Mutex<Vec<Option<W::Out>>>,
    /// Per-worker-slot in-flight registry; a respawned worker reuses its
    /// predecessor's slot (the supervisor has already emptied it).
    registry: Vec<Mutex<Option<Claim<W::Task>>>>,
}

/// Runs `workers` scoped workers over `work`, replacing any that panic
/// until the queues are empty, and returns the filled result slots.
/// `slots` may arrive pre-filled (e.g. shed responses); the work must
/// address only the empty ones.
pub(crate) fn run<W: Work>(
    work: &W,
    workers: usize,
    max_retries: u32,
    injector: &Injector,
    slots: Vec<Option<W::Out>>,
) -> Vec<Option<W::Out>> {
    let workers = workers.max(1);
    let pool = Pool {
        work,
        max_retries,
        injector,
        slots: Mutex::new(slots),
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

impl<W: Work> Pool<'_, W> {
    /// One worker: claim, register in-flight, serve, commit all of the
    /// task's outputs atomically, clear the registration.
    fn worker_loop(&self, slot: usize) {
        let mut local = self.work.local();
        while let Some(claim) = self.work.claim(slot, &mut local) {
            *lock_unpoisoned(&self.registry[slot]) = Some(claim);
            flight::record(
                W::CLAIM_EVENT,
                format!("{:?} requeues={}", claim.task, claim.requeues),
            );
            // The injected crash fires after registration and before any
            // serving, so the supervisor recovers the whole task and no
            // half-served state (responses, trace spans) leaks out.
            self.injector.panic_point(W::PANIC_POINT);
            let served = self.work.serve_task(claim.task, &mut local);
            self.commit(served);
            *lock_unpoisoned(&self.registry[slot]) = None;
        }
    }

    /// Reaps the panicked worker in `slot`: requeues its in-flight task
    /// first, so the replacement finds it back on the queue, or fails it
    /// once the retry budget is spent.
    fn recover(&self, slot: usize) {
        metrics::counter(W::RESPAWNS).inc();
        let orphan = lock_unpoisoned(&self.registry[slot]).take();
        obs_event!(
            Level::Warn, "serve", W::PANIC_MESSAGE;
            "slot" => slot as u64,
            "orphan" => orphan.map(|c| format!("{:?}", c.task)).unwrap_or_default(),
            "dump" => flight::dump_string(),
        );
        let Some(claim) = orphan else { return };
        if claim.requeues < self.max_retries {
            self.work.requeue(
                slot,
                Claim {
                    requeues: claim.requeues + 1,
                    ..claim
                },
            );
        } else {
            self.commit(self.work.fail_task(claim.task, claim.requeues + 1));
        }
    }

    fn commit(&self, served: Vec<(usize, W::Out)>) {
        let mut slots = lock_unpoisoned(&self.slots);
        for (idx, out) in served {
            debug_assert!(slots[idx].is_none(), "slot {idx} served twice");
            slots[idx] = Some(out);
        }
    }
}
