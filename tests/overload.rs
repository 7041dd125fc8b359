//! Overload determinism regression suite: admission-controlled serving
//! replaying seeded heavy-tailed traffic (Pareto gaps × Zipf popularity,
//! from `scenerec_bench::traffic`) must be reproducible to the last
//! byte, counter, and trace span.
//!
//! Three invariants, each its own regression test:
//!
//! 1. Replaying the same trace twice yields identical responses *and*
//!    identical `serve/admitted` / `serve/shed` counter increments —
//!    observability is part of the deterministic contract, not a
//!    best-effort side channel.
//! 2. The `serve.admit` / `serve.shed` / `serve.queue` span structure is
//!    pinned: one span per verdict, the whole-log structure digest is
//!    invariant across replays at a fixed worker count, and the
//!    admission-side slice of the structure (everything the scheduler
//!    thread opens before a worker exists) is invariant across worker
//!    counts {1, 2, 4}.
//! 3. Zero silent drops: every arrival gets exactly one response, typed
//!    by its verdict (ok/degraded for admitted, overloaded for shed).
//!
//! The metrics registry is process-global, and the tests in this binary
//! run on parallel threads, so every test that records or reads
//! counters holds `METRICS_GATE` for its whole body.

use scenerec_bench::traffic::{self, TrafficConfig};
use scenerec_core::FrozenModel;
use scenerec_obs::{metrics, structure_digest, structure_text};
use scenerec_serve::{
    replay_sharded_with, responses_to_json, AdmissionConfig, AdmissionPlan, Replay, ReplayOptions,
    Response, ShardReplayConfig, ShardedConfig, ShardedEngine, TimedRequest, Verdict,
};
use std::sync::Mutex;

/// Serializes metric-touching tests within this binary; survives a
/// poisoned lock so one failing test doesn't cascade.
static METRICS_GATE: Mutex<()> = Mutex::new(());

const USERS: usize = 64;

/// A small heavy-tailed trace: mean gap equal to the drain interval
/// (critical load), so bursts overflow the tight queue bounds below and
/// both admit and shed paths are exercised.
fn traffic_cfg() -> TrafficConfig {
    TrafficConfig {
        seed: 0xbeef,
        requests: 400,
        num_users: USERS as u32,
        k: 5,
        zipf_exponent: 1.1,
        pareto_alpha: 1.3,
        mean_gap_ticks: 4.0,
    }
}

fn admission_cfg() -> AdmissionConfig {
    AdmissionConfig {
        fast_capacity: 8,
        cold_capacity: 8,
        drain_every_ticks: 4,
        drain_per_round: 1,
        ..AdmissionConfig::default()
    }
}

fn bounded_cfg(workers: usize) -> ShardReplayConfig {
    ShardReplayConfig {
        workers,
        max_batch: 8,
        ..ShardReplayConfig::default()
    }
}

fn admitting(trace: bool) -> ReplayOptions {
    ReplayOptions {
        admission: Some(admission_cfg()),
        trace,
        ..ReplayOptions::default()
    }
}

fn bounded(
    engine: &ShardedEngine,
    trace: &[TimedRequest],
    cfg: &ShardReplayConfig,
) -> (Vec<Response>, AdmissionPlan) {
    let out = replay_sharded_with(engine, trace, cfg, &admitting(false));
    (out.responses, out.plan.expect("admission was requested"))
}

/// A fresh single engine (one shard) per run, so cache state never
/// leaks between replays.
fn engine() -> ShardedEngine {
    let frozen =
        FrozenModel::synthetic("overload-test", USERS, 32, 8, 11).expect("synthetic model");
    let seen: Vec<Vec<u32>> = vec![Vec::new(); USERS];
    ShardedEngine::new(frozen, &seen, ShardedConfig::with_shards(1)).expect("engine")
}

#[test]
fn heavy_tailed_replay_twice_is_identical_down_to_the_counters() {
    let _gate = METRICS_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let trace = traffic::generate(&traffic_cfg());
    let cfg = bounded_cfg(2);
    let run = || {
        let admitted_before = metrics::counter("serve/admitted").get();
        let shed_before = metrics::counter("serve/shed").get();
        let fast_before = metrics::counter("serve/shed_fast").get();
        let (out, plan) = bounded(&engine(), &trace, &cfg);
        (
            responses_to_json(&out),
            plan,
            metrics::counter("serve/admitted").get() - admitted_before,
            metrics::counter("serve/shed").get() - shed_before,
            metrics::counter("serve/shed_fast").get() - fast_before,
        )
    };
    let (bytes_a, plan_a, admitted_a, shed_a, shed_fast_a) = run();
    let (bytes_b, plan_b, admitted_b, shed_b, shed_fast_b) = run();

    assert!(
        plan_a.admitted() > 0 && plan_a.shed() > 0,
        "the trace must exercise both outcomes: {}/{}",
        plan_a.admitted(),
        plan_a.shed()
    );
    assert_eq!(bytes_a, bytes_b, "replay changed response bytes");
    assert_eq!(plan_a, plan_b, "replay changed the admission plan");

    // The counters are part of the deterministic surface: each replay
    // increments them by exactly the plan's accounting.
    assert_eq!(admitted_a, plan_a.admitted() as u64);
    assert_eq!(shed_a, plan_a.shed() as u64);
    assert_eq!(shed_fast_a, plan_a.shed_by_lane[0] as u64);
    assert_eq!(
        (admitted_a, shed_a, shed_fast_a),
        (admitted_b, shed_b, shed_fast_b),
        "replay changed the counter increments"
    );
}

/// The admission-visible slice of a [`structure_text`] rendering: the
/// `serve.request` roots (open tick only — the root's close tick counts
/// engine-side span events) plus every `serve.admit` / `serve.shed` /
/// `serve.queue` line in full. These spans are all opened — and, bar
/// the root, closed — in a fixed per-trace event order, so the slice
/// is the same at any worker count and any shard count.
fn admission_structure(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if line.contains("name=serve.request ") {
            let (head, _) = line.rsplit_once("..").expect("ticks field");
            out.push_str(head);
            out.push('\n');
        } else if line.contains("name=serve.admit ")
            || line.contains("name=serve.shed ")
            || line.contains("name=serve.queue ")
        {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn admit_and_shed_span_structure_is_pinned_across_replays_and_workers() {
    let _gate = METRICS_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let trace = traffic::generate(&traffic_cfg());
    let run = |workers: usize| {
        let Replay {
            responses: out,
            traces,
            plan,
        } = replay_sharded_with(&engine(), &trace, &bounded_cfg(workers), &admitting(true));
        let plan = plan.expect("admission was requested");
        (
            structure_digest(&traces),
            structure_text(&traces),
            plan,
            responses_to_json(&out),
        )
    };
    let (digest, text, plan, bytes) = run(1);

    // Span census: exactly one root per arrival, one admit + one queue
    // span per admitted request, one shed span per shed request.
    assert_eq!(text.matches("name=serve.request ").count(), plan.offered());
    assert_eq!(text.matches("name=serve.admit ").count(), plan.admitted());
    assert_eq!(text.matches("name=serve.queue ").count(), plan.admitted());
    assert_eq!(text.matches("name=serve.shed ").count(), plan.shed());

    // At a fixed worker count, a second replay reproduces the whole
    // span tree — engine-side spans included — down to the digest.
    let (digest_b, _, plan_b, bytes_b) = run(1);
    assert_eq!(digest_b, digest, "replay changed the span structure");
    assert_eq!(plan_b, plan, "replay changed the plan");
    assert_eq!(bytes_b, bytes, "replay changed response bytes");

    // Across worker counts, the plan, the response bytes, and the
    // admission-side span structure are pinned — shedding is decided
    // before a worker exists, so no interleaving can move it.
    let admission = admission_structure(&text);
    for workers in [2usize, 4] {
        let (_, t, p, b) = run(workers);
        assert_eq!(
            admission_structure(&t),
            admission,
            "workers={workers} changed the admission span structure"
        );
        assert_eq!(p, plan, "workers={workers} changed the plan");
        assert_eq!(b, bytes, "workers={workers} changed response bytes");
    }
}

#[test]
fn every_arrival_is_answered_exactly_once_with_a_typed_outcome() {
    let _gate = METRICS_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let trace = traffic::generate(&traffic_cfg());
    let (out, plan) = bounded(&engine(), &trace, &bounded_cfg(4));
    assert_eq!(out.len(), trace.len(), "a request went unanswered");
    for (i, (verdict, resp)) in plan.verdicts.iter().zip(&out).enumerate() {
        match verdict {
            Verdict::Shed(info) => {
                assert_eq!(resp.outcome(), "overloaded", "arrival {i}");
                assert_eq!(resp.overload, Some(*info), "arrival {i}: untyped shed");
                assert!(resp.recs.is_empty(), "arrival {i}: shed carried recs");
            }
            Verdict::Admit { .. } => {
                assert!(
                    matches!(resp.outcome(), "ok" | "degraded"),
                    "arrival {i}: admitted but {}",
                    resp.outcome()
                );
                assert!(
                    resp.overload.is_none(),
                    "arrival {i}: admitted yet overloaded"
                );
            }
        }
    }
}

/// The sharded engine under admission and tracing together: the same
/// heavy-tailed trace through a 2-shard engine answers with the single
/// engine's bytes and plan, one trace per arrival, and the single
/// engine's admission-side span slice, at workers {1, 2}.
#[test]
fn sharded_admission_traces_match_the_single_engine() {
    let _gate = METRICS_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let trace = traffic::generate(&traffic_cfg());
    for workers in [1usize, 2] {
        let single =
            replay_sharded_with(&engine(), &trace, &bounded_cfg(workers), &admitting(true));
        let frozen =
            FrozenModel::synthetic("overload-test", USERS, 32, 8, 11).expect("synthetic model");
        let sharded_engine =
            ShardedEngine::new_unseen(frozen, ShardedConfig::with_shards(2)).expect("engine");
        let sharded = replay_sharded_with(
            &sharded_engine,
            &trace,
            &ShardReplayConfig {
                workers,
                max_batch: 8,
                ..ShardReplayConfig::default()
            },
            &admitting(true),
        );
        assert_eq!(
            responses_to_json(&sharded.responses),
            responses_to_json(&single.responses),
            "workers={workers}: sharded bytes diverged"
        );
        assert!(sharded.plan.is_some(), "admission was requested");
        assert_eq!(
            sharded.plan, single.plan,
            "workers={workers}: plan diverged"
        );
        assert_eq!(sharded.traces.len(), trace.len(), "one trace per arrival");
        assert_eq!(
            admission_structure(&structure_text(&sharded.traces)),
            admission_structure(&structure_text(&single.traces)),
            "workers={workers}: admission span slice diverged"
        );
    }
}
