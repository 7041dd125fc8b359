//! `train_electronics`: the paper's own pipeline as a closed batch job.
//!
//! Generate Electronics at laptop scale, build SceneRec (d = 32), BPR-train
//! a fixed number of epochs (RMSProp, lr 5e-3, batch 32 fanned out over
//! two workers, validation every epoch, no early stopping), then rank every
//! test user against its 100 sampled negatives. Exercises `data`,
//! `autodiff`, `core`, `tensor` and `eval`; nothing in `serve`.

use crate::stats::{attribute, median};
use crate::{repeat_setup, span_ns, Outcome, RunConfig, Tracer, THREADS};
use scenerec_autodiff::{GradStore, Graph};
use scenerec_core::trainer::{
    make_optimizer, test, train_with_optimizer_traced, OptimizerKind, TrainConfig,
};
use scenerec_core::{ModelScorer, PairwiseModel, SceneRec, SceneRecConfig, Variant};
use scenerec_data::{generate, Dataset, DatasetProfile, EvalInstance, Scale};
use scenerec_eval::{evaluate, MetricSet};
use scenerec_graph::{ItemId, UserId};
use scenerec_obs::trace::{Trace, TraceData};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Training epochs per second of `--seconds`: an epoch takes about a
/// second on two cores, and the rest of the budget ranks test users.
const EPOCHS_PER_SECOND: f64 = 0.7;
/// Passes over the test users per second of `--seconds` (a pass takes
/// about 0.16 s on two cores).
const EVAL_PASSES_PER_SECOND: f64 = 1.25;
/// Triples in the per-variant autodiff probe.
const PROBE_TRIPLES: usize = 96;

fn model_config(seed: u64, variant: Variant) -> SceneRecConfig {
    SceneRecConfig::default()
        .with_dim(32)
        .with_variant(variant)
        .with_seed(seed)
}

/// Generates the Electronics dataset and builds the full model on it.
pub fn build(seed: u64, tracer: &mut Tracer) -> (Dataset, SceneRec) {
    let data = tracer.span("data.generate", || {
        generate(&DatasetProfile::Electronics.config(Scale::Laptop, seed))
            .expect("the Electronics preset is a valid generator config")
    });
    let model = tracer.span("core.model_build", || {
        SceneRec::new(model_config(seed, Variant::Full), &data)
    });
    (data, model)
}

pub fn train_config(epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        learning_rate: 5e-3,
        lambda: 1e-6,
        optimizer: OptimizerKind::RmsProp,
        k: 10,
        eval_every: 1,
        patience: 0,
        clip_norm: 5.0,
        batch_size: 32,
        seed,
        threads: THREADS,
        verbose: false,
    }
}

/// Ranks every test user once per pass, each user as its own `evaluate`
/// call, on [`THREADS`] threads. Returns per-user latencies (ms), the
/// ranks of the first pass, whether every pass ranked identically, and
/// the wall seconds spent.
fn rank_users(
    model: &SceneRec,
    users: &[EvalInstance],
    passes: usize,
) -> (Vec<f64>, Vec<usize>, bool, f64) {
    let scorer = ModelScorer(model);
    let mut latencies = Vec::with_capacity(users.len() * passes);
    let mut first: Option<Vec<usize>> = None;
    let mut stable = true;
    let start = Instant::now();
    for _ in 0..passes {
        let next = AtomicUsize::new(0);
        let ranks = Mutex::new(vec![0usize; users.len()]);
        let lat = Mutex::new(Vec::with_capacity(users.len()));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(inst) = users.get(i) else { break };
                    let t = Instant::now();
                    let summary = evaluate(&scorer, std::slice::from_ref(inst), 10, 1);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    ranks.lock().expect("no rank writer panics")[i] = summary.ranks[0];
                    lat.lock().expect("no latency writer panics").push(ms);
                });
            }
        });
        latencies.extend(lat.into_inner().expect("threads joined"));
        let ranks = ranks.into_inner().expect("threads joined");
        match &first {
            None => first = Some(ranks),
            Some(f) => stable &= *f == ranks,
        }
    }
    (
        latencies,
        first.unwrap_or_default(),
        stable,
        start.elapsed().as_secs_f64(),
    )
}

/// Deterministic BPR triples for the autodiff probe: evenly spaced
/// training pairs, each with the first unseen item after a stride.
fn probe_triples(data: &Dataset) -> Vec<(u32, u32, u32)> {
    let train = &data.split.train;
    let n = data.num_items();
    let step = (train.len() / PROBE_TRIPLES).max(1);
    train
        .iter()
        .step_by(step)
        .take(PROBE_TRIPLES)
        .map(|&(u, i)| {
            let seen: HashSet<u32> = data.interactions.items_of(u).iter().copied().collect();
            let mut neg = (i.raw() + 7919) % n;
            while seen.contains(&neg) {
                neg = (neg + 1) % n;
            }
            (u.raw(), i.raw(), neg)
        })
        .collect()
}

/// Forward and backward of one BPR triple on a fresh tape, each in its
/// own span; returns the tape length.
fn probe_one(model: &SceneRec, (u, p, n): (u32, u32, u32), tracer: &mut Tracer) -> usize {
    let mut g = Graph::new(model.store());
    let loss = tracer.span("autodiff.forward", || {
        let pos = model.build_score(&mut g, UserId(u), ItemId(p));
        let neg = model.build_score(&mut g, UserId(u), ItemId(n));
        let loss = g.bpr_loss(pos, neg);
        std::hint::black_box(g.scalar(loss));
        loss
    });
    tracer.span("autodiff.backward", || {
        let mut grads = GradStore::new(model.store());
        g.backward(loss, &mut grads);
        std::hint::black_box(grads);
    });
    g.len()
}

/// Per-triple forward/backward cost of each SceneRec variant, and the
/// optimizer step of the full model, as traced spans. Returns the layer
/// figures derived from those spans.
fn autodiff_probe(
    data: &Dataset,
    seed: u64,
    traces: &mut Vec<TraceData>,
) -> Vec<(&'static str, f64)> {
    let triples = probe_triples(data);
    let variants = [
        Variant::Full,
        Variant::NoItem,
        Variant::NoScene,
        Variant::NoAttention,
    ];
    let mut per_triple_us = Vec::new();
    let mut layers = Vec::new();
    for (v, variant) in variants.into_iter().enumerate() {
        let mut model = SceneRec::new(model_config(seed, variant), data);
        let mut tracer = Tracer::new(true, 100 + v as u64);
        // One untimed pass warms caches and allocator pools.
        let nodes: usize = triples
            .iter()
            .map(|&t| probe_one(&model, t, &mut Tracer::new(false, 0)))
            .sum();
        for &t in &triples {
            probe_one(&model, t, &mut tracer);
        }
        if variant == Variant::Full {
            let mut grads = GradStore::new(model.store());
            for &t in triples.iter().take(32) {
                let (u, p, n) = t;
                let mut g = Graph::new(model.store());
                let pos = model.build_score(&mut g, UserId(u), ItemId(p));
                let neg = model.build_score(&mut g, UserId(u), ItemId(n));
                let loss = g.bpr_loss(pos, neg);
                let mut ex = GradStore::new(model.store());
                g.backward(loss, &mut ex);
                grads.merge(&ex);
            }
            let mut opt = make_optimizer(&train_config(1, seed));
            for _ in 0..20 {
                tracer.span("autodiff.optim_step", || {
                    opt.step(model.store_mut(), &grads)
                });
            }
        }
        let trace = tracer.finish().expect("tracer is on");
        let fwd = mean(&span_ns([&trace], "autodiff.forward")) / 1e3;
        let bwd = mean(&span_ns([&trace], "autodiff.backward")) / 1e3;
        per_triple_us.push(fwd + bwd);
        if variant == Variant::Full {
            layers.push(("autodiff.forward_us", fwd));
            layers.push(("autodiff.backward_us", bwd));
            layers.push(("autodiff.tape_nodes", nodes as f64 / triples.len() as f64));
            layers.push((
                "autodiff.optim_step_us",
                median(&span_ns([&trace], "autodiff.optim_step")) / 1e3,
            ));
        }
        traces.push(trace);
    }
    let a = attribute(
        per_triple_us[0],
        per_triple_us[1],
        per_triple_us[2],
        per_triple_us[3],
    );
    layers.push(("core.item_item_us", a.item_item));
    layers.push(("core.scene_us", a.scene));
    layers.push(("core.attention_us", a.attention));
    layers
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn run(rc: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(rc.trace, 0);
    let ((data, mut model), setup_s) = repeat_setup(|| build(rc.seed, &mut tracer));
    out.setup_s = setup_s;

    // One trainer call per epoch, sharing the optimizer state, so each
    // epoch is a timed sample and the median shrugs off a slow one. Each
    // epoch reseeds negative sampling with `seed + epoch`.
    let epochs = ((rc.seconds * EPOCHS_PER_SECOND).round() as usize).max(1);
    let cfg = train_config(1, rc.seed);
    let mut opt = make_optimizer(&cfg);
    let mut trainer_trace = rc.trace.then(|| Trace::new(1));
    let mut epoch_train_s = Vec::with_capacity(epochs);
    let mut losses_finite = true;
    let mut final_loss = f32::NAN;
    for epoch in 0..epochs {
        let cfg = TrainConfig {
            seed: rc.seed.wrapping_add(epoch as u64),
            ..cfg.clone()
        };
        let start = Instant::now();
        let report = train_with_optimizer_traced(
            &mut model,
            &data,
            &cfg,
            opt.as_mut(),
            trainer_trace.as_mut(),
        );
        let wall_s = start.elapsed().as_secs_f64();
        epoch_train_s.push(wall_s - report.phases.eval_ns as f64 / 1e9);
        final_loss = report.final_loss();
        losses_finite &= report.epochs.len() == 1 && final_loss.is_finite();
    }
    let triples_per_epoch = data.split.train.len();
    out.throughput_per_s = triples_per_epoch as f64 / median(&epoch_train_s);
    out.attempted += (epochs * triples_per_epoch) as u64;
    out.check("training loss is finite every epoch", losses_finite);

    let passes = ((rc.seconds * EVAL_PASSES_PER_SECOND).round() as usize).max(2);
    let users = &data.split.test;
    let (latencies, ranks, stable, eval_wall) = rank_users(&model, users, passes);
    out.attempted += latencies.len() as u64;
    out.latencies_ms = latencies;
    let ndcg = MetricSet::from_ranks(&ranks, 10).ndcg;
    out.check("test_ndcg_at_10 lies in (0, 1]", ndcg > 0.0 && ndcg <= 1.0);
    out.check("every ranking pass ranks identically", stable);
    let batch = tracer.span("eval.evaluate", || test(&model, &data, &cfg));
    out.check(
        "per-user ranks equal the batched evaluate",
        batch.ranks == ranks,
    );

    let eval_users_per_s = (users.len() * passes) as f64 / eval_wall;
    out.notes.push(format!(
        "train_electronics: {} epochs x {} triples, train_examples_per_s {:.1} (median epoch), \
         eval_users_per_s {:.1}, test_ndcg_at_10 {:.6}, final loss {:.6}",
        epochs, triples_per_epoch, out.throughput_per_s, eval_users_per_s, ndcg, final_loss
    ));

    if rc.trace {
        let mut traces = Vec::new();
        let bench = tracer.finish().expect("tracer is on");
        let per_epoch = |ns: u64| ns as f64 / 1e6 / epochs as f64;
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
                "eval.evaluate_ms",
                median(&span_ns([&bench], "eval.evaluate")) / 1e6,
            ),
        ];
        traces.push(bench);
        if let Some(t) = trainer_trace.map(Trace::finish) {
            let sum = |name: &str| span_ns([&t], name).iter().sum::<f64>() as u64;
            let fanout = sum("trainer.fanout");
            let covered = sum("trainer.sample")
                + fanout
                + sum("trainer.reduce")
                + sum("trainer.step")
                + sum("trainer.eval");
            out.layers.extend([
                ("trainer.sample_ms", per_epoch(sum("trainer.sample"))),
                ("trainer.fanout_ms", per_epoch(fanout)),
                ("trainer.reduce_ms", per_epoch(sum("trainer.reduce"))),
                ("trainer.step_ms", per_epoch(sum("trainer.step"))),
                ("trainer.eval_ms", per_epoch(sum("trainer.eval"))),
                (
                    "trainer.parallel_efficiency",
                    (sum("trainer.forward") + sum("trainer.backward")) as f64
                        / (fanout as f64 * THREADS as f64),
                ),
                (
                    "bench.layer_coverage",
                    covered as f64 / sum("trainer.train").max(1) as f64,
                ),
            ]);
            traces.push(t);
        }
        out.layers
            .extend(autodiff_probe(&data, rc.seed, &mut traces));
        out.traces = traces;
    }
    out
}
