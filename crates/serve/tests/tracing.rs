//! Causal-tracing determinism suite.
//!
//! Pins the tentpole tracing invariants:
//!
//! * every response's span tree roots at its request's trace id, with
//!   `serve.queue` / `serve.batch` children and `serve.shard` /
//!   `serve.merge` grandchildren,
//! * span *structure* (ids, parentage, logical ticks) is byte-identical
//!   across worker counts {1, 2, 4} — cold (all cache misses) and warm
//!   (all hits),
//! * the structure also survives injected worker panics,
//! * tracing never changes the served bytes,
//! * the Chrome trace-event export parses and covers every span.

use scenerec_core::{FrozenHead, FrozenModel, Recommendation};
use scenerec_faults::{Fault, FaultPlan, Injector, Trigger};
use scenerec_obs::{chrome_trace_json, structure_digest, structure_text, FieldValue, TraceData};
use scenerec_serve::{
    replay_sharded, replay_sharded_with, EngineConfig, ReplayOptions, Request, Response,
    ShardReplayConfig, ShardedConfig, ShardedEngine, TimedRequest,
};
use scenerec_tensor::Matrix;

const NUM_REQUESTS: usize = 1002;

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
    let config = EngineConfig {
        // Room for every distinct (user, k) in the log, so a warmed
        // engine serves the whole replay from cache.
        cache_capacity: 2 * NUM_REQUESTS,
        ..EngineConfig::default()
    };
    let config = ShardedConfig {
        shards: 1,
        engine: config,
    };
    ShardedEngine::new(frozen, &[vec![0], vec![], vec![4]], config).unwrap()
}

/// 1002 requests with pairwise-distinct (user, k): on a fresh engine a
/// replay is all cache misses regardless of worker interleaving, which
/// is what makes cold span structure worker-count invariant.
fn unique_requests() -> Vec<Request> {
    (0..NUM_REQUESTS)
        .map(|i| Request {
            user: (i % 3) as u32,
            k: 1 + i / 3,
        })
        .collect()
}

fn traced_supervised(
    engine: &ShardedEngine,
    requests: &[Request],
    config: &ShardReplayConfig,
    injector: &Injector,
) -> (Vec<Response>, Vec<TraceData>) {
    let options = ReplayOptions {
        injector: injector.clone(),
        trace: true,
        ..ReplayOptions::default()
    };
    let out = replay_sharded_with(engine, &TimedRequest::burst(requests), config, &options);
    (out.responses, out.traces)
}

fn traced(
    engine: &ShardedEngine,
    requests: &[Request],
    config: &ShardReplayConfig,
) -> (Vec<Response>, Vec<TraceData>) {
    traced_supervised(engine, requests, config, &Injector::disabled())
}

fn config(workers: usize) -> ShardReplayConfig {
    ShardReplayConfig {
        workers,
        max_batch: 16,
        ..ShardReplayConfig::default()
    }
}

#[test]
fn every_response_roots_at_its_requests_trace_id() {
    let engine = toy_engine();
    let requests = unique_requests();
    let (responses, traces) = traced(&engine, &requests, &config(1));
    assert_eq!(responses.len(), NUM_REQUESTS);
    assert_eq!(traces.len(), NUM_REQUESTS);

    for (idx, (req, trace)) in requests.iter().zip(&traces).enumerate() {
        assert_eq!(trace.trace_id, idx as u64, "trace id is the request index");
        let root = trace.root().expect("trace has a root span");
        assert_eq!(root.name, "serve.request");
        assert_eq!(root.parent, None);
        assert_eq!(root.start_tick, 1);
        assert_eq!(root.field("user"), Some(&FieldValue::Int(req.user as i64)));
        assert_eq!(root.field("k"), Some(&FieldValue::Int(req.k as i64)));

        let kids: Vec<&str> = trace
            .children(root.id)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(kids, vec!["serve.queue", "serve.batch"], "request {idx}");

        let batch = trace.span_named("serve.batch").unwrap();
        let grandkids: Vec<&str> = trace
            .children(batch.id)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        // Fresh engine + unique (user, k): always a miss, so the shard
        // span records a scoring pass, then the merge follows.
        assert_eq!(grandkids, vec!["serve.shard", "serve.merge"]);
        assert_eq!(
            trace.span_named("serve.shard").unwrap().field("hit"),
            Some(&FieldValue::Bool(false))
        );

        // Ticks are consecutive, properly nested, and close every span.
        let queue = trace.span_named("serve.queue").unwrap();
        assert!(queue.start_tick > root.start_tick);
        assert!(queue.end_tick > queue.start_tick);
        assert!(batch.start_tick > queue.end_tick);
        assert!(root.end_tick == trace.spans.iter().map(|s| s.end_tick).max().unwrap());
        assert!(trace.spans.iter().all(|s| s.end_tick > s.start_tick));
        assert!(trace.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}

#[test]
fn span_structure_is_byte_identical_across_worker_counts() {
    let requests = unique_requests();

    // Cold: a fresh engine per run, every request misses the cache.
    let cold: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&workers| {
            let engine = toy_engine();
            let (_, traces) = traced(&engine, &requests, &config(workers));
            structure_text(&traces)
        })
        .collect();
    assert_eq!(cold[0], cold[1], "cold structure diverged at 2 workers");
    assert_eq!(cold[0], cold[2], "cold structure diverged at 4 workers");

    // Warm: one engine, cache filled by a cold pass; every request hits.
    let engine = toy_engine();
    let _ = traced(&engine, &requests, &config(1));
    let warm: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&workers| {
            let (_, traces) = traced(&engine, &requests, &config(workers));
            assert!(traces
                .iter()
                .all(|t| t.span_named("serve.shard").unwrap().field("hit")
                    == Some(&FieldValue::Bool(true))));
            structure_text(&traces)
        })
        .collect();
    assert_eq!(warm[0], warm[1], "warm structure diverged at 2 workers");
    assert_eq!(warm[0], warm[2], "warm structure diverged at 4 workers");
    // A hit and a miss record the same span tree — only the shard
    // span's fields differ — so cold and warm structures agree too.
    assert_eq!(cold[0], warm[0]);
}

#[test]
fn span_structure_survives_injected_worker_panics() {
    let requests = unique_requests();
    let reference = {
        let engine = toy_engine();
        let (responses, traces) = traced(&engine, &requests, &config(1));
        (responses, structure_text(&traces))
    };
    for workers in [1usize, 2, 4] {
        let engine = toy_engine();
        let cfg = ShardReplayConfig {
            max_retries: 16,
            ..config(workers)
        };
        // Every 3rd task claim panics its worker. The panic fires
        // before the worker serves any cell, and traces are assembled
        // after the scatter, so the recorded structure must match the
        // fault-free reference.
        let injector = Injector::new(FaultPlan::new(workers as u64).inject(
            "serve/shard_worker",
            Trigger::Every(3),
            Fault::Panic,
        ));
        let (responses, traces) = traced_supervised(&engine, &requests, &cfg, &injector);
        assert!(injector.injected() > 0, "plan never fired");
        assert_eq!(responses, reference.0, "workers={workers}");
        assert_eq!(
            structure_text(&traces),
            reference.1,
            "structure diverged under panics at workers={workers}"
        );
    }
}

#[test]
fn tracing_does_not_change_served_bytes() {
    let requests = unique_requests();
    let untraced: Vec<Response> = replay_sharded(&toy_engine(), &requests, &config(4));
    let (traced, _) = traced(&toy_engine(), &requests, &config(4));
    assert_eq!(untraced, traced);
    let recs: Vec<&Recommendation> = traced.iter().flat_map(|r| &r.recs).collect();
    assert!(!recs.is_empty());
}

#[test]
fn chrome_export_parses_and_covers_every_span() {
    let engine = toy_engine();
    let requests = unique_requests();
    let (_, traces) = traced(&engine, &requests, &config(2));
    let total_spans: usize = traces.iter().map(|t| t.spans.len()).sum();
    assert!(total_spans >= 4 * NUM_REQUESTS);

    let json = chrome_trace_json(&traces);
    let doc = serde_json::parse_value(&json).unwrap();
    let events = match &doc {
        serde_json::Value::Object(o) => {
            match &o.iter().find(|(k, _)| k == "traceEvents").unwrap().1 {
                serde_json::Value::Array(a) => a.clone(),
                other => panic!("traceEvents: {other:?}"),
            }
        }
        other => panic!("not an object: {other:?}"),
    };
    assert_eq!(events.len(), total_spans);

    // Every request index appears as a tid, and every event is a
    // complete-span record.
    let mut tids = std::collections::BTreeSet::new();
    for ev in &events {
        let serde_json::Value::Object(o) = ev else {
            panic!("event not an object")
        };
        let get = |k: &str| o.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(get("ph"), Some(serde_json::Value::Str("X".to_string())));
        match get("tid") {
            Some(serde_json::Value::Int(t)) => {
                tids.insert(t);
            }
            other => panic!("tid: {other:?}"),
        }
        assert!(matches!(get("args"), Some(serde_json::Value::Object(_))));
    }
    assert_eq!(tids.len(), NUM_REQUESTS);

    // Digest sanity: the digest of these traces matches a recomputed
    // one and differs from a digest over a subset.
    assert_eq!(structure_digest(&traces), structure_digest(&traces));
    assert_ne!(
        structure_digest(&traces),
        structure_digest(&traces[..NUM_REQUESTS - 1])
    );
}

#[test]
fn engine_outage_traces_keep_request_root() {
    // Retries and stale fallbacks happen inside the shard's cell, so a
    // request whose shard is down still has a rooted trace with queue,
    // batch, shard and merge spans.
    let engine = toy_engine();
    let requests = vec![Request { user: 1, k: 2 }, Request { user: 1, k: 2 }];
    let cfg = ShardReplayConfig {
        workers: 1,
        max_batch: 1,
        max_retries: 1,
    };
    let injector =
        Injector::new(FaultPlan::new(9).inject("serve/shard/0", Trigger::After(1), Fault::Io));
    let (responses, traces) = traced_supervised(&engine, &requests, &cfg, &injector);
    assert!(responses[1].degraded);
    let degraded: &TraceData = &traces[1];
    assert_eq!(degraded.root().unwrap().name, "serve.request");
    let names: Vec<&str> = degraded.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "serve.request",
            "serve.queue",
            "serve.batch",
            "serve.shard",
            "serve.merge"
        ]
    );
}
