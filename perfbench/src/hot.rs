//! `serve_hot`: open-loop online serving from a hot result cache.
//!
//! SceneRec is trained for one epoch and frozen at f32 into a one-shard
//! `ShardedEngine` whose result cache holds fewer users than the 300-user
//! population, so Zipf popularity decides the hit share and LRU eviction
//! runs. Arrivals come from `scenerec_bench::traffic` (Zipf 1.1 users,
//! Pareto 1.3 gaps), mapped to wall time at fixed rates; one arrival in
//! 20 also clicks its top recommendation (`mark_seen`, which evicts the
//! user's cache entry) under a benchmark-side `RwLock`. Two threads pull
//! due arrivals in order, and latency counts from each request's intended
//! send time, so queueing behind a slow miss is measured; only when the
//! sender itself woke late (a descheduled thread) does it count from the
//! actual send, and that lateness is reported on its own.

use crate::stats::{median, percentile, schedule_ns, segmented_tail, slo_rate, Rung};
use crate::{repeat_setup, span_ns, Outcome, RunConfig, Tracer, THREADS};
use scenerec_bench::traffic::{generate as traffic, TrafficConfig};
use scenerec_core::trainer::{train, TrainConfig};
use scenerec_core::{top_k_unseen, FrozenModel, PairwiseModel, SceneRec};
use scenerec_data::Dataset;
use scenerec_graph::UserId;
use scenerec_obs::trace::{Trace, TraceData};
use scenerec_obs::FieldValue;
use scenerec_serve::{ShardedConfig, ShardedEngine};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

const K: usize = 20;
/// Result-cache entries: fewer than the 300 users, so LRU eviction runs.
const CACHE_CAPACITY: usize = 64;
/// Every this many arrivals, one is a feedback write.
const WRITE_EVERY: usize = 20;
/// Offered rate of the nominal phase: about a fifth of `slo_rps` and a
/// seventh of the closed-loop capacity on two cores. Pareto bursts run at
/// two to three times the mean rate, so a higher nominal rate queues
/// whenever a shared machine slows and the median turns from a cache hit
/// into a queue wait.
const NOMINAL_RPS: f64 = 500.0;
/// The `slo_rps` ladder, ascending.
const LADDER_RPS: [f64; 10] = [
    2_000.0, 2_250.0, 2_500.0, 2_750.0, 3_000.0, 3_500.0, 4_000.0, 5_000.0, 6_000.0, 8_000.0,
];
/// The latency limit every ladder rung must meet, milliseconds, on the
/// tail `stats::segmented_tail` reports (p90 of 100-request windows).
const SLO_TAIL_MS: f64 = 2.0;
/// Share of `--seconds` spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.35;
/// Share of `--seconds` the closed-loop capacity phases last together,
/// at about [`CAPACITY_RPS`].
const CAPACITY_SHARE: f64 = 0.2;
const CAPACITY_RPS: f64 = 4_000.0;
const CAPACITY_PHASES: usize = 9;
/// Share of `--seconds` each ladder rung offers load for; the ladder
/// stops after its first failing rung, the fourth or fifth on two cores.
const RUNG_SHARE: f64 = 0.08;
/// Inter-arrival gaps are capped at this many median gaps.
const MAX_GAP_FACTOR: f64 = 50.0;
/// A nominal phase whose sender woke later than this at p99 is invalid.
const SENDER_LATE_LIMIT_MS: f64 = 0.5;
/// Nominal phases tried before the run is reported invalid.
const NOMINAL_ATTEMPTS: usize = 3;
/// A rung is abandoned once a request starts this late (it has failed).
const ABANDON_MS: f64 = 200.0;
/// Untimed requests that warm each phase's fresh engine.
const WARMUP: usize = 512;

/// The frozen model and what rebuilding an engine from it needs.
struct Served {
    data: Dataset,
    model: SceneRec,
    frozen: FrozenModel,
    seen: Vec<Vec<u32>>,
}

fn engine(s: &Served) -> ShardedEngine {
    let mut config = ShardedConfig::with_shards(1);
    config.engine.cache_capacity = CACHE_CAPACITY;
    ShardedEngine::new(s.frozen.clone(), &s.seen, config).expect("a frozen SceneRec is consistent")
}

/// Builds, trains one epoch, freezes and builds an engine once.
fn setup(seed: u64, tracer: &mut Tracer) -> Served {
    let (data, mut model) = crate::train::build(seed, tracer);
    // One serial epoch: without the per-batch fan-out barrier, a shared
    // machine's stolen CPU time slows set-up far less.
    let cfg = TrainConfig {
        eval_every: 0,
        threads: 1,
        ..crate::train::train_config(1, seed)
    };
    tracer.span("core.train", || train(&mut model, &data, &cfg));
    let frozen = tracer.span("core.freeze", || model.freeze().expect("SceneRec freezes"));
    let seen = (0..data.num_users())
        .map(|u| data.train_graph.items_of(UserId(u)).to_vec())
        .collect();
    let served = Served {
        data,
        model,
        frozen,
        seen,
    };
    tracer.span("serve.engine_build", || engine(&served));
    served
}

/// Timestamps of one served request, nanoseconds from the phase origin.
#[derive(Debug, Clone, Copy, Default)]
struct Timing {
    /// Intended send time.
    due: u64,
    /// Actual send time: `due`, or later when the sender itself woke late
    /// (that lateness is the harness's, reported as `late`). Latency and
    /// queue wait count from here.
    sent: u64,
    /// Service start: the engine read lock is held.
    start: u64,
    /// `partial_top_k` returned.
    partial_end: u64,
    /// The write lock is held (writes only).
    write_start: u64,
    /// The response (and, for writes, `mark_seen`) is complete.
    done: u64,
    /// How late the worker woke for a request it waited on, if it waited.
    late: Option<u64>,
    hit: bool,
    write: bool,
    ok: bool,
}

struct Phase {
    rate: f64,
    records: Vec<Timing>,
    abandoned: bool,
    traces: Vec<TraceData>,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| {
                if r.ok {
                    (r.done - r.sent) as f64 / 1e6
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// Requests due by the last arrival that had not started by then.
    fn backlog_end(&self) -> usize {
        let last_due = self.records.iter().map(|r| r.due).max().unwrap_or(0);
        self.records.iter().filter(|r| r.start > last_due).count()
    }

    /// p99 of how late the workers woke for arrivals they waited on, ms.
    fn sender_late_ms(&self) -> f64 {
        let mut late: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.late)
            .map(|l| l as f64 / 1e6)
            .collect();
        late.sort_by(f64::total_cmp);
        if late.is_empty() {
            0.0
        } else {
            percentile(&late, 99.0)
        }
    }

    /// Requests completed per second from the first start to the last
    /// completion.
    fn completion_rate(&self) -> f64 {
        let first = self.records.iter().map(|r| r.start).min().unwrap_or(0);
        let last = self.records.iter().map(|r| r.done).max().unwrap_or(0);
        self.records.len() as f64 * 1e9 / last.saturating_sub(first).max(1) as f64
    }

    /// Median queue wait of the last tenth of the arrivals, ms. A backlog
    /// that grows over the rung shows here; one burst at the very end
    /// does not.
    fn end_wait_ms(&self) -> f64 {
        let tail = &self.records[self.records.len() * 9 / 10..];
        let waits: Vec<f64> = tail
            .iter()
            .map(|r| r.start.saturating_sub(r.sent) as f64 / 1e6)
            .collect();
        median(&waits)
    }

    fn rung(&self) -> Rung {
        Rung {
            rate: self.rate,
            tail_ms: segmented_tail(&self.latencies_ms()).map_or(f64::INFINITY, |t| t.value),
            backlog_ok: !self.abandoned && self.end_wait_ms() <= SLO_TAIL_MS,
        }
    }
}

fn wait_until(deadline: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return now;
        }
        let left = deadline - now;
        // Sleep only far from the deadline: a wake-up can overshoot by
        // hundreds of microseconds, which would count as sender lateness.
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Serves `users` through a fresh, warmed engine on [`THREADS`] workers;
/// every [`WRITE_EVERY`]th arrival also marks its top recommendation
/// seen. Open loop when `due_ns` gives each arrival's offset from the
/// phase origin; closed loop (back to back) when it is `None`.
fn run_phase(
    served: &Served,
    rate: f64,
    users: &[u32],
    due_ns: Option<&[u64]>,
    traced: bool,
) -> Phase {
    let engine = RwLock::new(engine(served));
    {
        let e = engine.read().expect("not poisoned");
        for &u in users.iter().take(WARMUP) {
            let _ = e.partial_top_k(0, u, K);
        }
    }
    let records = Mutex::new(vec![Timing::default(); users.len()]);
    let traces = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let abandon = AtomicBool::new(false);
    let origin = Instant::now() + Duration::from_millis(2);
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= users.len() || abandon.load(Ordering::Relaxed) {
                    break;
                }
                let claimed = Instant::now();
                let due_at = due_ns.map_or(ns(claimed), |d| d[i]);
                let due = origin + Duration::from_nanos(due_at);
                let woke = wait_until(due);
                let mut r = Timing {
                    due: due_at,
                    sent: if claimed < due { ns(woke) } else { due_at },
                    late: (claimed < due).then(|| ns(woke).saturating_sub(due_at)),
                    write: i % WRITE_EVERY == WRITE_EVERY - 1,
                    ..Timing::default()
                };
                let mut trace = traced.then(|| Trace::new(i as u64));
                let guard = engine.read().expect("no engine user panics");
                let start = Instant::now();
                r.start = ns(start);
                let lookup = trace.as_mut().map(|t| {
                    t.start_span("bench.request");
                    t.record_span("serve.queue", r.start.saturating_sub(r.sent));
                    t.start_span("serve.partial_top_k")
                });
                let partial = guard.partial_top_k(0, users[i], K);
                r.partial_end = ns(Instant::now());
                drop(guard);
                r.ok = partial.is_ok();
                if let (Some(t), Some(s)) = (trace.as_mut(), lookup) {
                    t.add_field(
                        s,
                        "hit",
                        FieldValue::Bool(partial.as_ref().is_ok_and(|p| p.hit)),
                    );
                    t.end_span(s);
                }
                if let Ok(p) = &partial {
                    r.hit = p.hit;
                    if r.write {
                        let mut w = engine.write().expect("no engine user panics");
                        r.write_start = ns(Instant::now());
                        let mark = trace.as_mut().map(|t| {
                            t.record_span(
                                "serve.write_wait",
                                r.write_start.saturating_sub(r.partial_end),
                            );
                            t.start_span("serve.mark_seen")
                        });
                        r.ok = p
                            .recs
                            .first()
                            .is_some_and(|top| w.mark_seen(users[i], top.item.raw()).is_ok());
                        if let (Some(t), Some(s)) = (trace.as_mut(), mark) {
                            t.end_span(s);
                        }
                    }
                }
                r.done = ns(Instant::now());
                if r.start.saturating_sub(r.due) as f64 > ABANDON_MS * 1e6 {
                    abandon.store(true, Ordering::Relaxed);
                }
                if let Some(t) = trace {
                    traces
                        .lock()
                        .expect("no trace writer panics")
                        .push(t.finish());
                }
                records.lock().expect("no record writer panics")[i] = r;
            });
        }
    });
    let abandoned = abandon.load(Ordering::Relaxed);
    let mut records = records.into_inner().expect("threads joined");
    records.retain(|r| r.done > 0);
    let mut traces = traces.into_inner().expect("threads joined");
    traces.sort_by_key(|t| t.trace_id);
    Phase {
        rate,
        records,
        abandoned,
        traces,
    }
}

/// Gives request `i` of phase `k` (0 = nominal, then the capacity phases,
/// then the ladder rungs) trace id `(k + 1) * 1_000_000 + i`, so every
/// request has its own track in Perfetto and none shares the benchmark's
/// trace 0.
fn relabel(traces: &mut [TraceData], phase: usize) {
    for t in traces {
        t.trace_id += (phase as u64 + 1) * 1_000_000;
    }
}

/// Users and wall-clock offsets of `n` arrivals at `rate`.
fn arrivals(seed: u64, num_users: u32, n: usize, rate: f64) -> (Vec<u32>, Vec<u64>) {
    let trace = traffic(&TrafficConfig {
        seed,
        requests: n,
        num_users,
        k: K,
        zipf_exponent: 1.1,
        pareto_alpha: 1.3,
        mean_gap_ticks: 100.0,
    });
    let ticks: Vec<u64> = trace.iter().map(|t| t.arrive_tick).collect();
    let users = trace.iter().map(|t| t.request.user).collect();
    (users, schedule_ns(&ticks, rate, MAX_GAP_FACTOR))
}

pub fn run(rc: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(rc.trace, 0);
    let (served, setup_s) = repeat_setup(|| setup(rc.seed, &mut tracer));
    out.setup_s = setup_s;

    // Parity before timing: engine answers equal the tape bit for bit.
    let e = engine(&served);
    let num_users = served.data.num_users();
    let parity = (0..16u32).all(|j| {
        let u = (j * 37 + rc.seed as u32 % 17) % num_users;
        let fast = e.top_k(u, K).expect("user in range");
        let tape = top_k_unseen(&served.model, &served.data, UserId(u), K);
        fast.len() == tape.len()
            && fast
                .iter()
                .zip(&tape)
                .all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits())
    });
    out.check(
        "engine top-K equals tape top_k_unseen bit for bit on 16 users",
        parity,
    );
    drop(e);

    // A nominal phase whose sender fell behind its schedule measured the
    // machine, not the server: it is re-run, and if every attempt fell
    // behind, the run is marked invalid (a harness condition, not a wrong
    // output, so it does not count as a failed operation).
    let n = (rc.seconds * NOMINAL_SHARE * NOMINAL_RPS) as usize;
    let (users, due) = arrivals(rc.seed, num_users, n, NOMINAL_RPS);
    let mut nominal = run_phase(&served, NOMINAL_RPS, &users, Some(&due), rc.trace);
    for _ in 1..NOMINAL_ATTEMPTS {
        if nominal.sender_late_ms() <= SENDER_LATE_LIMIT_MS {
            break;
        }
        out.notes.push(format!(
            "sender fell behind (late p99 {:.4} ms); nominal phase discarded and re-run",
            nominal.sender_late_ms()
        ));
        out.attempted += nominal.records.len() as u64;
        nominal = run_phase(&served, NOMINAL_RPS, &users, Some(&due), rc.trace);
    }
    relabel(&mut nominal.traces, 0);
    let late_p99 = nominal.sender_late_ms();
    out.valid = late_p99 <= SENDER_LATE_LIMIT_MS;
    out.attempted += nominal.records.len() as u64;
    out.failed += nominal.records.iter().filter(|r| !r.ok).count() as u64;
    out.latencies_ms = nominal.latencies_ms();

    // Closed-loop capacity: two workers back to back interleave misses,
    // lock waits and writes differently from one phase to the next, so
    // several short phases each give a rate and the median is reported.
    // Traced runs trace every phase: the service-time tails of misses and
    // writes need more samples than the nominal phase alone has.
    let mut other_traces = Vec::new();
    let n = (rc.seconds * CAPACITY_SHARE * CAPACITY_RPS) as usize / CAPACITY_PHASES;
    let mut rates = Vec::new();
    for p in 0..CAPACITY_PHASES {
        let (users, _) = arrivals(rc.seed ^ (0xCA9A + p as u64), num_users, n, CAPACITY_RPS);
        let mut closed = run_phase(&served, f64::INFINITY, &users, None, rc.trace);
        relabel(&mut closed.traces, 1 + p);
        out.attempted += closed.records.len() as u64;
        out.failed += closed.records.iter().filter(|r| !r.ok).count() as u64;
        rates.push(closed.completion_rate());
        other_traces.extend(closed.traces);
    }
    out.throughput_per_s = median(&rates);

    let mut rungs = Vec::new();
    for (r, rate) in LADDER_RPS.into_iter().enumerate() {
        let n = (rate * rc.seconds * RUNG_SHARE) as usize;
        let (users, due) = arrivals(rc.seed ^ 0x001A_DDE2, num_users, n, rate);
        let mut phase = run_phase(&served, rate, &users, Some(&due), rc.trace);
        relabel(&mut phase.traces, 1 + CAPACITY_PHASES + r);
        out.attempted += phase.records.len() as u64;
        out.failed += phase.records.iter().filter(|r| !r.ok).count() as u64;
        let rung = phase.rung();
        out.notes.push(format!(
            "rung {rate:.0} req/s: tail {:.4} ms, end queue wait {:.4} ms, backlog_end {}, {} requests{}",
            rung.tail_ms,
            phase.end_wait_ms(),
            phase.backlog_end(),
            phase.records.len(),
            if phase.abandoned { ", abandoned" } else { "" }
        ));
        rungs.push(rung);
        other_traces.extend(phase.traces);
        if !rung.passes(SLO_TAIL_MS) {
            break;
        }
    }
    let slo_rps = slo_rate(&rungs, SLO_TAIL_MS);

    let hits = nominal.records.iter().filter(|r| r.hit).count();
    let hit_share = hits as f64 / nominal.records.len().max(1) as f64;
    out.notes.push(format!(
        "serve_hot: nominal {NOMINAL_RPS:.0} req/s over {} requests, hit share {hit_share:.4}, \
         backlog_end {}, sender late p99 {late_p99:.4} ms over {} waits; closed-loop capacity {:.1} req/s; \
         slo_rps {slo_rps:.1} (tail <= {SLO_TAIL_MS} ms)",
        nominal.records.len(),
        nominal.backlog_end(),
        nominal.records.iter().filter(|r| r.late.is_some()).count(),
        out.throughput_per_s
    ));

    if rc.trace {
        let bench = tracer.finish().expect("tracer is on");
        let t = &nominal.traces;
        let all = || t.iter().chain(&other_traces);
        let us = |v: Vec<f64>| v.into_iter().map(|x| x / 1e3).collect::<Vec<_>>();
        let by_hit = |want: bool| {
            let v: Vec<f64> = all()
                .flat_map(|d| &d.spans)
                .filter(|s| s.name == "serve.partial_top_k")
                .filter(|s| matches!(s.field("hit"), Some(FieldValue::Bool(h)) if *h == want))
                .map(|s| s.duration_ns() as f64 / 1e3)
                .collect();
            v
        };
        let p = |mut v: Vec<f64>, pct: f64| {
            v.sort_by(f64::total_cmp);
            percentile(&v, pct)
        };
        let covered: f64 = [
            "serve.queue",
            "serve.partial_top_k",
            "serve.write_wait",
            "serve.mark_seen",
        ]
        .iter()
        .map(|n| span_ns(t, n).iter().sum::<f64>())
        .sum();
        // Each request's latency runs from when it was sent.
        let total_ns: f64 = nominal
            .records
            .iter()
            .map(|r| (r.done - r.sent) as f64)
            .sum();
        out.layers = vec![
            (
                "data.generate_ms",
                median(&span_ns([&bench], "data.generate")) / 1e6,
            ),
            (
                "core.model_build_ms",
                median(&span_ns([&bench], "core.model_build")) / 1e6,
            ),
            (
                "core.freeze_ms",
                median(&span_ns([&bench], "core.freeze")) / 1e6,
            ),
            ("serve.cache_hit_share", hit_share),
            ("serve.hit_us_p50", p(by_hit(true), 50.0)),
            ("serve.miss_us_p50", p(by_hit(false), 50.0)),
            ("serve.miss_us_p99", p(by_hit(false), 99.0)),
            (
                "serve.mark_seen_us_p99",
                p(us(span_ns(all(), "serve.mark_seen")), 99.0),
            ),
            (
                "serve.queue_wait_ms_p99",
                p(span_ns(t, "serve.queue"), 99.0) / 1e6,
            ),
            ("serve.backlog_end", nominal.backlog_end() as f64),
            ("bench.sender_late_ms_p99", late_p99),
            ("bench.layer_coverage", covered / total_ns),
        ];
        let mut traces = vec![bench];
        traces.extend(nominal.traces);
        traces.extend(other_traces);
        out.traces = traces;
    }
    out
}
