//! Pairwise BPR training (Eq. 15) for any [`PairwiseModel`].
//!
//! Per epoch: shuffle training interactions; for each observed pair
//! `(u, pos)` sample an unobserved `neg`. Each batch of triples is split
//! into micro-batches of 16; a micro-batch puts every triple's
//! `-ln σ(r'(u,pos) - r'(u,neg))` on one tape
//! ([`PairwiseModel::build_bpr_losses`], which lets SceneRec build a
//! recurring user, scene sum, category or item once), runs one backward
//! pass over all of them, and the batch then takes one optimizer step.
//! λ‖Θ‖² is realized as sparse-aware weight decay in the optimizer (see
//! `scenerec_autodiff::optim::WeightDecay`). Early stopping monitors
//! validation NDCG@K.

use crate::api::{ModelScorer, PairwiseModel};
use crate::checkpoint::{CheckpointError, CheckpointStore};
use crate::model::SceneRec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scenerec_autodiff::optim::{Adam, Optimizer, RmsProp, Sgd};
use scenerec_autodiff::{GradStore, Graph};
use scenerec_data::Dataset;
use scenerec_eval::{evaluate, EvalSummary};
use scenerec_faults::Injector;
use scenerec_graph::{ItemId, UserId};
use scenerec_obs::{monotonic_ns, FieldValue, Stopwatch, Trace, TraceData};
use scenerec_tensor::stats::RunningStats;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::path::PathBuf;

/// Optimizer selection for training runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// RMSProp — the paper's choice (§5.3).
    RmsProp,
    /// Adam.
    Adam,
    /// Plain SGD.
    Sgd,
}

/// Training-loop configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of epochs (upper bound; early stopping may end sooner).
    pub epochs: usize,
    /// Learning rate (the paper grid-searches {1e-4, 1e-3, 1e-2, 1e-1}).
    pub learning_rate: f32,
    /// L2 regularization λ (the paper grid-searches
    /// {0, 1e-6, 1e-4, 1e-2}).
    pub lambda: f32,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Evaluation cutoff K (paper: 10).
    pub k: usize,
    /// Evaluate on validation every this many epochs (0 = never).
    pub eval_every: usize,
    /// Stop after this many non-improving validation evaluations
    /// (0 = no early stopping).
    pub patience: usize,
    /// Gradient-clipping threshold on the global norm (0 = off).
    pub clip_norm: f32,
    /// Triples accumulated per optimizer step (1 = pure SGD-style BPR;
    /// larger batches smooth RMSProp's per-step noise and amortize
    /// optimizer-state updates).
    pub batch_size: usize,
    /// Sampling / shuffling seed.
    pub seed: u64,
    /// Worker threads for the training fan-out and gradient reduce, and
    /// for validation/test evaluation. 0 runs serially, like 1; the
    /// default is the machine's available parallelism. The fan-out hands
    /// out whole 16-triple micro-batches, so it uses at most
    /// ⌈`batch_size` / 16⌉ workers.
    pub threads: usize,
    /// Print per-epoch progress to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            learning_rate: 1e-3,
            lambda: 1e-6,
            optimizer: OptimizerKind::RmsProp,
            k: 10,
            eval_every: 1,
            patience: 5,
            clip_norm: 5.0,
            batch_size: 1,
            seed: 17,
            threads: num_threads(),
            verbose: false,
        }
    }
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// One epoch's record in a [`TrainReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean BPR loss over the epoch.
    pub mean_loss: f32,
    /// Validation NDCG@K if evaluated this epoch.
    pub val_ndcg: Option<f32>,
    /// Validation HR@K if evaluated this epoch.
    pub val_hr: Option<f32>,
}

/// Where a training run's wall time went, summed over all epochs.
///
/// Lives on [`TrainReport`] (not [`EpochRecord`]) so per-epoch records
/// stay bit-identical across same-seed runs; per-epoch timings are the
/// phase spans of a traced run ([`train_traced`]) instead.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Negative rejection-sampling (plus epoch shuffling).
    pub sample_ns: u64,
    /// Tape construction and loss evaluation (summed across workers, so
    /// with `threads > 1` this is CPU time, not wall time). Its traced
    /// `trainer.forward` span starts with `trainer.fanout` and, as CPU
    /// time, may run past the fan-out's end.
    pub forward_ns: u64,
    /// Reverse-mode gradient accumulation (summed across workers, like
    /// `forward_ns`; its `trainer.backward` span also starts with the
    /// fan-out and may run past its end).
    pub backward_ns: u64,
    /// Gradient scaling/clipping and the optimizer update.
    pub step_ns: u64,
    /// Validation evaluation. For a model with a ranking view
    /// ([`PairwiseModel::rank_scores`]; SceneRec) this includes building
    /// the view, once per pass, since the steps before it dropped the
    /// last one.
    pub eval_ns: u64,
    /// Wall-clock time of the parallel forward/backward fan-out, until
    /// every worker has finished its micro-batches.
    /// `(forward_ns + backward_ns) / (fanout_ns * workers)` is the
    /// parallel efficiency of a run. Not counted in [`Self::total_ns`] —
    /// the same work already appears in `forward_ns`/`backward_ns`.
    pub fanout_ns: u64,
    /// Wall-clock time of the fixed-order reduce of the per-micro-batch
    /// gradient stores into the batch accumulator (the reduction step of
    /// data-parallel training), which follows the fan-out.
    pub reduce_ns: u64,
}

impl PhaseBreakdown {
    /// Sum of all phases, nanoseconds. Excludes `fanout_ns`, which is an
    /// alternative (wall-clock) view of the work counted by
    /// `forward_ns + backward_ns`.
    pub fn total_ns(&self) -> u64 {
        self.sample_ns
            + self.forward_ns
            + self.backward_ns
            + self.step_ns
            + self.reduce_ns
            + self.eval_ns
    }

    fn add(&mut self, other: &PhaseBreakdown) {
        self.sample_ns += other.sample_ns;
        self.forward_ns += other.forward_ns;
        self.backward_ns += other.backward_ns;
        self.step_ns += other.step_ns;
        self.eval_ns += other.eval_ns;
        self.fanout_ns += other.fanout_ns;
        self.reduce_ns += other.reduce_ns;
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Per-epoch losses and validation metrics.
    pub epochs: Vec<EpochRecord>,
    /// Best validation NDCG@K seen (0 when never evaluated).
    pub best_val_ndcg: f32,
    /// Epoch of the best validation NDCG.
    pub best_epoch: usize,
    /// Whether early stopping fired.
    pub early_stopped: bool,
    /// Wall-time breakdown over the whole run.
    pub phases: PhaseBreakdown,
}

impl TrainReport {
    /// Final training loss.
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map_or(f32::NAN, |e| e.mean_loss)
    }
}

/// Trains `model` on `data` (training split) with BPR.
///
/// Negative sampling rejects any item the user has interacted with in the
/// *full* interaction set, so held-out validation/test positives are never
/// presented as negatives.
///
/// ## Data-parallel batches
///
/// Each mini-batch is trained data-parallel across
/// `max(1, `[`TrainConfig::threads`]`)` workers, **bit-identical to
/// serial for the same seed at any thread count**:
///
/// 1. negatives for the whole batch are rejection-sampled *serially* on
///    the calling thread (RNG consumption is data-dependent, so this is
///    the only order that keeps the stream stable),
/// 2. the batch is split into contiguous **micro-batches** of 16 triples
///    (the last may be shorter), each one slot with one tape and one
///    [`GradStore`]. The slots are handed out in contiguous runs, one
///    run per worker (the calling thread works the first), so at most
///    ⌈batch / 16⌉ workers are busy. A slot puts its triples' losses on
///    its tape through [`PairwiseModel::build_bpr_losses`], records each
///    loss, and runs one backward pass seeded with 1 on every loss into
///    its store. The call builds one store per slot up front and resets
///    it for every micro-batch, so a step allocates no gradient storage,
/// 3. once every worker is done, the same workers sum the slot stores
///    into the batch accumulator ([`GradStore::reduce_with`] in
///    `scenerec_tensor::par::fan_out_then_reduce`): dense parameters are
///    shared out whole and embedding tables by contiguous row range, and
///    each parameter slot adds its contributions in micro-batch order.
///    The calling thread then scales, clips and applies one optimizer
///    step.
///
/// The micro-batch size is a constant, never derived from the thread
/// count, and a store per micro-batch (rather than per worker) is what
/// makes the reduction exact: every parameter slot sums the same
/// floating-point values in the same order regardless of where worker
/// or share boundaries fall.
pub fn train<M: PairwiseModel + Sync>(
    model: &mut M,
    data: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    let mut opt = make_optimizer(cfg);
    train_with_optimizer(model, data, cfg, opt.as_mut())
}

/// [`train`] with causal tracing: records a `trainer.train` root span
/// with one `trainer.epoch` child per epoch, each carrying
/// `trainer.sample` / `trainer.fanout` / `trainer.forward` /
/// `trainer.backward` / `trainer.reduce` / `trainer.step` (and, on
/// evaluation epochs, `trainer.eval`) phase spans recorded from the
/// measured phase breakdown. The wall phases (sample, fan-out, reduce,
/// step, eval) lie end to end in that order, ending as the epoch closes;
/// forward and backward start with the fan-out (see
/// [`PhaseBreakdown::forward_ns`]). The returned [`TraceData`] renders
/// in Perfetto via `scenerec_obs::chrome_trace_json` alongside serve
/// traces. Training itself is bit-identical to [`train`].
pub fn train_traced<M: PairwiseModel + Sync>(
    model: &mut M,
    data: &Dataset,
    cfg: &TrainConfig,
) -> (TrainReport, TraceData) {
    let mut opt = make_optimizer(cfg);
    let mut trace = Trace::new(0);
    let report = train_with_optimizer_traced(model, data, cfg, opt.as_mut(), Some(&mut trace));
    (report, trace.finish())
}

/// [`train`] with a caller-owned optimizer.
///
/// This is the checkpoint-resume entry point: the caller builds the
/// optimizer (typically via [`make_optimizer`]), restores a saved
/// [`scenerec_autodiff::OptimState`] into it with
/// `Optimizer::import_state`, trains, and exports the state again for the
/// next checkpoint. [`train`] is the common wrapper that owns the
/// optimizer internally and discards its state.
pub fn train_with_optimizer<M: PairwiseModel + Sync>(
    model: &mut M,
    data: &Dataset,
    cfg: &TrainConfig,
    opt: &mut dyn Optimizer,
) -> TrainReport {
    train_with_optimizer_traced(model, data, cfg, opt, None)
}

/// [`train_with_optimizer`] optionally recording epoch/phase spans into
/// `trace` (see [`train_traced`]). The untraced wrappers pass `None`;
/// all entry points share this one implementation.
pub fn train_with_optimizer_traced<M: PairwiseModel + Sync>(
    model: &mut M,
    data: &Dataset,
    cfg: &TrainConfig,
    opt: &mut dyn Optimizer,
    mut trace: Option<&mut Trace>,
) -> TrainReport {
    let root_span = trace.as_deref_mut().map(|t| {
        let s = t.start_span("trainer.train");
        t.add_field(s, "model", FieldValue::Str(model.name().to_string()));
        t.add_field(s, "epochs", FieldValue::Int(cfg.epochs as i64));
        s
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut runner = EpochRunner::new(model, data, cfg);

    let mut report = TrainReport {
        epochs: Vec::with_capacity(cfg.epochs),
        best_val_ndcg: 0.0,
        best_epoch: 0,
        early_stopped: false,
        phases: PhaseBreakdown::default(),
    };
    let mut bad_evals = 0usize;

    for epoch in 0..cfg.epochs {
        let epoch_span = trace.as_deref_mut().map(|t| {
            let s = t.start_span("trainer.epoch");
            t.add_field(s, "epoch", FieldValue::Int(epoch as i64));
            s
        });
        let (mean_loss, mut phases) = runner.run_epoch(model, cfg, opt, &mut rng);

        let mut record = EpochRecord {
            epoch,
            mean_loss,
            val_ndcg: None,
            val_hr: None,
        };

        let should_eval = cfg.eval_every > 0 && (epoch + 1) % cfg.eval_every == 0;
        if should_eval && !data.split.validation.is_empty() {
            let mut mark = Stopwatch::start();
            let summary = validate(model, data, cfg);
            phases.eval_ns += mark.lap_ns();
            record.val_ndcg = Some(summary.metrics.ndcg);
            record.val_hr = Some(summary.metrics.hr);
            if summary.metrics.ndcg > report.best_val_ndcg {
                report.best_val_ndcg = summary.metrics.ndcg;
                report.best_epoch = epoch;
                bad_evals = 0;
            } else {
                bad_evals += 1;
            }
        }

        if let (Some(t), Some(s)) = (trace.as_deref_mut(), epoch_span) {
            // Phase spans are recorded post-hoc from the measured
            // breakdown, two consecutive ticks each. The wall phases lie
            // end to end, ending now as the epoch closes, so none overlap
            // and the epoch's self time is the time no phase measured.
            // Forward and backward sum CPU time over workers: they start
            // with the fan-out and may run past its end. Always all six
            // training phases — a phase measuring zero still appears, so
            // the span count per epoch is a constant of the
            // configuration.
            let wall_ns = phases.sample_ns
                + phases.fanout_ns
                + phases.reduce_ns
                + phases.step_ns
                + phases.eval_ns;
            let sample_at = monotonic_ns().saturating_sub(wall_ns);
            let fanout_at = sample_at + phases.sample_ns;
            let reduce_at = fanout_at + phases.fanout_ns;
            let step_at = reduce_at + phases.reduce_ns;
            t.record_span_at("trainer.sample", sample_at, phases.sample_ns);
            t.record_span_at("trainer.fanout", fanout_at, phases.fanout_ns);
            t.record_span_at("trainer.forward", fanout_at, phases.forward_ns);
            t.record_span_at("trainer.backward", fanout_at, phases.backward_ns);
            t.record_span_at("trainer.reduce", reduce_at, phases.reduce_ns);
            t.record_span_at("trainer.step", step_at, phases.step_ns);
            if record.val_ndcg.is_some() {
                let eval_at = step_at + phases.step_ns;
                t.record_span_at("trainer.eval", eval_at, phases.eval_ns);
            }
            t.add_field(s, "mean_loss", FieldValue::Float(record.mean_loss as f64));
            t.end_span(s);
        }
        if cfg.verbose {
            print_epoch(model.name(), &record);
        }
        report.phases.add(&phases);
        report.epochs.push(record);

        if cfg.patience > 0 && bad_evals >= cfg.patience {
            report.early_stopped = true;
            break;
        }
    }
    if let (Some(t), Some(s)) = (trace, root_span) {
        t.end_span(s);
    }
    report
}

/// Triples per micro-batch. A batch is split into contiguous micro-batches
/// of this many triples (the last may be shorter), and each is one fan-out
/// slot with one tape and one gradient store. A constant, never derived
/// from the thread count: the micro-batches fix how gradient sums are
/// grouped, so trained bytes are the same at every thread count.
const MICRO_BATCH: usize = 16;

/// The state a training call builds once and every epoch reuses: the
/// known positives for negative rejection, the training pairs, the
/// triple buffer, one gradient store per micro-batch slot and the batch
/// accumulator.
struct EpochRunner {
    /// All known positives per user (for negative rejection).
    known: Vec<HashSet<u32>>,
    pairs: Vec<(u32, u32)>,
    num_items: u32,
    triples: Vec<(UserId, ItemId, ItemId)>,
    /// One slot per micro-batch of a full batch, reset (not rebuilt) for
    /// every micro-batch.
    slots: Vec<MicroBatch>,
    /// The batch accumulator.
    grads: GradStore,
    workers: usize,
}

impl EpochRunner {
    fn new<M: PairwiseModel>(model: &M, data: &Dataset, cfg: &TrainConfig) -> Self {
        let batch = cfg.batch_size.max(1);
        let mut known: Vec<HashSet<u32>> = vec![HashSet::new(); data.num_users() as usize];
        for (u, i, _) in data.interactions.iter_interactions() {
            known[u.index()].insert(i.raw());
        }
        EpochRunner {
            known,
            pairs: train_pairs(data),
            num_items: data.num_items(),
            triples: Vec::with_capacity(batch),
            slots: (0..batch.div_ceil(MICRO_BATCH))
                .map(|_| MicroBatch {
                    grads: GradStore::new(model.store()),
                    losses: Vec::with_capacity(MICRO_BATCH.min(batch)),
                })
                .collect(),
            grads: GradStore::new(model.store()),
            workers: cfg.threads.max(1),
        }
    }

    /// One epoch of BPR training: shuffle the pairs with `rng`, then run
    /// the batched data-parallel update loop. Returns the epoch's mean loss
    /// and wall-time breakdown.
    ///
    /// This is the body shared by [`train_with_optimizer`] (one rng stream
    /// across all epochs) and [`train_resumable`] (a fresh rng per epoch,
    /// over the pairs in their original order, so every epoch's outcome is
    /// a pure function of the parameters, optimizer state, and epoch index
    /// — the property that makes crash-resume byte-identical to an
    /// uninterrupted run).
    fn run_epoch<M: PairwiseModel + Sync>(
        &mut self,
        model: &mut M,
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut StdRng,
    ) -> (f32, PhaseBreakdown) {
        let batch = cfg.batch_size.max(1);
        let mut phases = PhaseBreakdown::default();
        let mut mark = Stopwatch::start();
        self.pairs.shuffle(rng);
        let mut loss_stats = RunningStats::new();
        phases.sample_ns += mark.lap_ns();

        for chunk in self.pairs.chunks(batch) {
            self.grads.clear();

            // Rejection-sample all negatives for the batch serially: the
            // number of draws per pair is data-dependent, so only a fixed
            // consumption order keeps the RNG stream thread-invariant.
            mark = Stopwatch::start();
            self.triples.clear();
            for &(u, pos) in chunk {
                let neg = loop {
                    let cand = rng.gen_range(0..self.num_items);
                    if !self.known[u as usize].contains(&cand) {
                        break cand;
                    }
                };
                self.triples.push((UserId(u), ItemId(pos), ItemId(neg)));
            }
            phases.sample_ns += mark.lap_ns();

            // Fan out over contiguous runs of micro-batch slots, one tape
            // and one pooled store per slot, the calling thread working
            // the first run; then each of the same workers reduces its
            // share of the parameters over every slot, in slot order.
            let n = self.triples.len().div_ceil(MICRO_BATCH);
            let sub = n.div_ceil(self.workers.min(n).max(1));
            let parts = n.div_ceil(sub);
            let model_ref: &M = model;
            let triples: &[(UserId, ItemId, ItemId)] = &self.triples;
            let slots = &mut self.slots[..n];
            let fan_start = Stopwatch::start();
            let out = self.grads.reduce_with(parts, |shares| {
                scenerec_tensor::par::fan_out_then_reduce(
                    slots,
                    sub,
                    shares,
                    |w, part| {
                        let (mut fwd_ns, mut bwd_ns) = (0u64, 0u64);
                        let micro = triples.chunks(MICRO_BATCH).skip(w * sub);
                        for (slot, micro) in part.iter_mut().zip(micro) {
                            let mut wmark = Stopwatch::start();
                            let mut g = Graph::new(model_ref.store());
                            let losses = model_ref.build_bpr_losses(&mut g, micro);
                            slot.losses.clear();
                            slot.losses.extend(losses.iter().map(|&l| g.scalar(l)));
                            // One backward seeded with 1 on every loss.
                            let stacked = g.stack_scalars(&losses);
                            let total = g.sum(stacked);
                            fwd_ns += wmark.lap_ns();
                            slot.grads.reset();
                            g.backward(total, &mut slot.grads);
                            bwd_ns += wmark.lap_ns();
                        }
                        (fwd_ns, bwd_ns)
                    },
                    |_, share, done| {
                        let fanout_ns = fan_start.elapsed_ns();
                        share.absorb(done.iter().flat_map(|c| c.iter().map(|s| &s.grads)));
                        fanout_ns
                    },
                )
            });
            let total_ns = fan_start.elapsed_ns();
            // Worker 0 is the calling thread: the fan-out ends, for the
            // wall clock, when it starts reducing.
            let fanout_ns = out.first().map_or(total_ns, |&(_, f)| f);
            phases.fanout_ns += fanout_ns;
            phases.reduce_ns += total_ns - fanout_ns;
            for &((fwd_ns, bwd_ns), _) in &out {
                phases.forward_ns += fwd_ns;
                phases.backward_ns += bwd_ns;
            }

            mark = Stopwatch::start();
            for slot in &self.slots[..n] {
                for &loss in &slot.losses {
                    loss_stats.push(loss);
                }
            }
            if chunk.len() > 1 {
                // Mean gradient over the batch, matching the per-triple
                // loss scale of batch_size = 1.
                self.grads.scale(1.0 / chunk.len() as f32);
            }
            if cfg.clip_norm > 0.0 {
                scenerec_autodiff::optim::clip_global_norm(&mut self.grads, cfg.clip_norm);
            }
            opt.step(model.store_mut(), &self.grads);
            phases.step_ns += mark.lap_ns();
        }

        (loss_stats.mean(), phases)
    }
}

/// Prints one finished epoch's progress line to stderr.
fn print_epoch(model: &str, record: &EpochRecord) {
    let val = match (record.val_ndcg, record.val_hr) {
        (Some(ndcg), Some(hr)) => format!(", val_ndcg {ndcg:.4}, val_hr {hr:.4}"),
        _ => String::new(),
    };
    eprintln!(
        "[trainer] {model} epoch {}: mean_loss {:.6}{val}",
        record.epoch, record.mean_loss
    );
}

/// One micro-batch slot: the gradient store its tape's backward pass
/// fills, and its triples' losses, in order.
struct MicroBatch {
    grads: GradStore,
    losses: Vec<f32>,
}

/// The training split as `(user, item)` pairs, in split order.
fn train_pairs(data: &Dataset) -> Vec<(u32, u32)> {
    data.split
        .train
        .iter()
        .map(|&(u, i)| (u.raw(), i.raw()))
        .collect()
}

// ---------------------------------------------------------------------
// Resumable training
// ---------------------------------------------------------------------

/// Trainer bookkeeping that rides in a checkpoint's `trainer` section so
/// [`train_resumable`] can continue exactly where a crashed run stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerState {
    /// The next epoch to run (epochs `0..next_epoch` are complete).
    pub next_epoch: usize,
    /// Per-epoch records of the completed epochs.
    pub epochs: Vec<EpochRecord>,
    /// Best validation NDCG@K so far.
    pub best_val_ndcg: f32,
    /// Epoch of the best validation NDCG.
    pub best_epoch: usize,
    /// Consecutive non-improving evaluations (early-stopping counter).
    pub bad_evals: usize,
    /// Whether early stopping already fired (a resumed run must not
    /// train past it).
    pub early_stopped: bool,
}

impl TrainerState {
    fn fresh() -> Self {
        TrainerState {
            next_epoch: 0,
            epochs: Vec::new(),
            best_val_ndcg: 0.0,
            best_epoch: 0,
            bad_evals: 0,
            early_stopped: false,
        }
    }
}

/// Checkpointing policy for [`train_resumable`].
#[derive(Debug, Clone)]
pub struct ResumableTrainConfig {
    /// Directory holding the checkpoint files.
    pub dir: PathBuf,
    /// Save a checkpoint every this many epochs (clamped to ≥ 1); the
    /// final epoch is always checkpointed.
    pub checkpoint_every: usize,
    /// Retention window: how many checkpoints to keep on disk.
    pub retain: usize,
}

impl ResumableTrainConfig {
    /// A policy over `dir` checkpointing every `checkpoint_every` epochs
    /// and retaining 3 files.
    pub fn new(dir: impl Into<PathBuf>, checkpoint_every: usize) -> Self {
        ResumableTrainConfig {
            dir: dir.into(),
            checkpoint_every,
            retain: 3,
        }
    }
}

/// Why a [`train_resumable`] run did not finish.
#[derive(Debug)]
pub enum TrainRunError {
    /// Resume state could not be loaded (every retained checkpoint is
    /// unusable, or the directory is unreadable).
    Checkpoint(CheckpointError),
    /// An injected crash stopped the run after `epoch`; calling
    /// [`train_resumable`] again resumes from the last good checkpoint.
    Interrupted {
        /// The last epoch that ran before the crash.
        epoch: usize,
    },
}

impl std::fmt::Display for TrainRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainRunError::Checkpoint(e) => write!(f, "cannot resume training: {e}"),
            TrainRunError::Interrupted { epoch } => {
                write!(f, "training interrupted after epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for TrainRunError {}

impl From<CheckpointError> for TrainRunError {
    fn from(e: CheckpointError) -> Self {
        TrainRunError::Checkpoint(e)
    }
}

/// Derives the rng seed for one epoch of a resumable run (splitmix64 over
/// the base seed and epoch index).
fn epoch_seed(seed: u64, epoch: usize) -> u64 {
    let mut z = seed.wrapping_add(
        (epoch as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`train`] with crash-resume: checkpoints every
/// [`ResumableTrainConfig::checkpoint_every`] epochs and, on entry,
/// resumes from the newest good checkpoint in
/// [`ResumableTrainConfig::dir`].
///
/// Unlike [`train_with_optimizer`], every epoch draws from a **fresh rng
/// seeded by `(cfg.seed, epoch)`**, so an epoch's outcome depends only on
/// the parameters, optimizer state, and epoch index. Combined with the
/// lossless checkpoint round-trip this makes a crashed-and-resumed run
/// **byte-identical** to an uninterrupted one — the invariant
/// `tests/chaos.rs` pins under injected crashes.
///
/// Checkpoint *save* failures are survivable by design (the run keeps
/// training and the next good save supersedes the failed one); each
/// prints a warning to stderr. Resume failures are not: if
/// checkpoints exist but none loads, the caller gets
/// [`TrainRunError::Checkpoint`] rather than silently restarting from
/// scratch.
///
/// # Errors
/// [`TrainRunError::Interrupted`] when the injector fires a crash at
/// `train/epoch` (call again to resume); [`TrainRunError::Checkpoint`]
/// when resume state exists but cannot be loaded.
pub fn train_resumable(
    model: &mut SceneRec,
    data: &Dataset,
    cfg: &TrainConfig,
    rcfg: &ResumableTrainConfig,
    injector: &Injector,
) -> Result<TrainReport, TrainRunError> {
    let store = CheckpointStore::new(&rcfg.dir, rcfg.retain);
    let every = rcfg.checkpoint_every.max(1);
    let mut opt = make_optimizer(cfg);
    let mut state = TrainerState::fresh();

    if let Some((loaded, epoch)) = store.load_latest_good(data, injector)? {
        *model = loaded.model;
        if let Some(os) = &loaded.optimizer {
            opt.import_state(os)
                .map_err(|e| CheckpointError::Malformed(format!("optimizer state: {e}")))?;
        }
        if let Some(ts) = loaded.trainer {
            state = ts;
        }
        eprintln!(
            "[trainer] resumed from the epoch-{epoch} checkpoint; next epoch {}",
            state.next_epoch
        );
    }

    let mut report = TrainReport {
        epochs: state.epochs,
        best_val_ndcg: state.best_val_ndcg,
        best_epoch: state.best_epoch,
        early_stopped: state.early_stopped,
        phases: PhaseBreakdown::default(),
    };
    let mut bad_evals = state.bad_evals;
    let start_epoch = state.next_epoch;
    if report.early_stopped {
        return Ok(report);
    }

    let mut runner = EpochRunner::new(model, data, cfg);

    for epoch in start_epoch..cfg.epochs {
        // A fresh, epoch-indexed rng over the pairs in split order: resume
        // replays the exact stream the uninterrupted run would have
        // consumed.
        let mut rng = StdRng::seed_from_u64(epoch_seed(cfg.seed, epoch));
        runner.pairs = train_pairs(data);
        let (mean_loss, mut phases) = runner.run_epoch(model, cfg, opt.as_mut(), &mut rng);

        let mut record = EpochRecord {
            epoch,
            mean_loss,
            val_ndcg: None,
            val_hr: None,
        };
        let should_eval = cfg.eval_every > 0 && (epoch + 1) % cfg.eval_every == 0;
        if should_eval && !data.split.validation.is_empty() {
            let mut mark = Stopwatch::start();
            let summary = validate(model, data, cfg);
            phases.eval_ns += mark.lap_ns();
            record.val_ndcg = Some(summary.metrics.ndcg);
            record.val_hr = Some(summary.metrics.hr);
            if summary.metrics.ndcg > report.best_val_ndcg {
                report.best_val_ndcg = summary.metrics.ndcg;
                report.best_epoch = epoch;
                bad_evals = 0;
            } else {
                bad_evals += 1;
            }
        }

        if cfg.verbose {
            print_epoch(model.name(), &record);
        }
        report.phases.add(&phases);
        report.epochs.push(record);

        if cfg.patience > 0 && bad_evals >= cfg.patience {
            report.early_stopped = true;
        }

        let done = report.early_stopped || epoch + 1 == cfg.epochs;
        if done || (epoch + 1) % every == 0 {
            let tstate = TrainerState {
                next_epoch: epoch + 1,
                epochs: report.epochs.clone(),
                best_val_ndcg: report.best_val_ndcg,
                best_epoch: report.best_epoch,
                bad_evals,
                early_stopped: report.early_stopped,
            };
            let os = opt.export_state();
            if let Err(e) = store.save(model, Some(&os), Some(&tstate), epoch + 1, injector) {
                eprintln!("[trainer] warning: checkpoint save after epoch {epoch} failed: {e}");
            }
        }

        if injector.crash("train/epoch") {
            return Err(TrainRunError::Interrupted { epoch });
        }
        if report.early_stopped {
            break;
        }
    }
    Ok(report)
}

/// Evaluates `model` on the validation split.
pub fn validate<M: PairwiseModel + Sync>(
    model: &M,
    data: &Dataset,
    cfg: &TrainConfig,
) -> EvalSummary {
    evaluate(
        &ModelScorer(model),
        &data.split.validation,
        cfg.k,
        cfg.threads,
    )
}

/// Evaluates `model` on the test split.
pub fn test<M: PairwiseModel + Sync>(model: &M, data: &Dataset, cfg: &TrainConfig) -> EvalSummary {
    evaluate(&ModelScorer(model), &data.split.test, cfg.k, cfg.threads)
}

/// Builds the optimizer selected by `cfg` (with its weight decay), for use
/// with [`train_with_optimizer`].
pub fn make_optimizer(cfg: &TrainConfig) -> Box<dyn Optimizer> {
    match cfg.optimizer {
        OptimizerKind::RmsProp => {
            Box::new(RmsProp::new(cfg.learning_rate).with_weight_decay(cfg.lambda))
        }
        OptimizerKind::Adam => Box::new(Adam::new(cfg.learning_rate).with_weight_decay(cfg.lambda)),
        OptimizerKind::Sgd => Box::new(Sgd::new(cfg.learning_rate).with_weight_decay(cfg.lambda)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SceneRecConfig, Variant};
    use crate::model::SceneRec;
    use scenerec_data::{generate, GeneratorConfig};

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            learning_rate: 1e-3,
            lambda: 0.0,
            optimizer: OptimizerKind::RmsProp,
            k: 10,
            eval_every: 1,
            patience: 0,
            clip_norm: 5.0,
            batch_size: 1,
            seed: 3,
            threads: 2,
            verbose: false,
        }
    }

    #[test]
    fn training_reduces_loss() {
        let data = generate(&GeneratorConfig::tiny(31)).unwrap();
        let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8).with_seed(1), &data);
        let mut cfg = quick_cfg();
        cfg.epochs = 4;
        cfg.eval_every = 0;
        let report = train(&mut model, &data, &cfg);
        assert_eq!(report.epochs.len(), 4);
        let first = report.epochs.first().unwrap().mean_loss;
        let last = report.final_loss();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        // BPR loss starts near ln 2.
        assert!(first > 0.2 && first < 2.0, "first loss {first}");
    }

    #[test]
    fn train_traced_records_epoch_and_phase_spans() {
        let data = generate(&GeneratorConfig::tiny(31)).unwrap();
        let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8).with_seed(1), &data);
        let cfg = quick_cfg();
        let (report, trace) = train_traced(&mut model, &data, &cfg);
        assert_eq!(report.epochs.len(), cfg.epochs);

        let root = trace.root().unwrap();
        assert_eq!(root.name, "trainer.train");
        assert_eq!(root.parent, None);
        assert_eq!(root.start_tick, 1);
        let epochs: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "trainer.epoch")
            .collect();
        assert_eq!(epochs.len(), cfg.epochs);
        for (i, e) in epochs.iter().enumerate() {
            assert_eq!(e.parent, Some(root.id));
            assert_eq!(e.field("epoch"), Some(&FieldValue::Int(i as i64)));
            assert!(e.field("mean_loss").is_some());
            let phases: Vec<&str> = trace
                .spans
                .iter()
                .filter(|s| s.parent == Some(e.id))
                .map(|s| s.name.as_str())
                .collect();
            // eval_every=1 and a non-empty validation split: every
            // epoch evaluates, so all seven phases appear.
            assert_eq!(
                phases,
                vec![
                    "trainer.sample",
                    "trainer.fanout",
                    "trainer.forward",
                    "trainer.backward",
                    "trainer.reduce",
                    "trainer.step",
                    "trainer.eval",
                ]
            );
        }
        // Every span is closed with end after start on both clocks.
        assert!(trace
            .spans
            .iter()
            .all(|s| s.end_tick > s.start_tick && s.end_ns >= s.start_ns));
        // The wall phases lie end to end inside their epoch, in order, so
        // no two overlap and `timings` gives an epoch the time no phase
        // measured as its self time. (At batch 1 one worker runs the
        // fan-out, so forward and backward lie inside it.)
        let wall = [
            "trainer.sample",
            "trainer.fanout",
            "trainer.reduce",
            "trainer.step",
            "trainer.eval",
        ];
        let mut phase_ns = 0;
        for e in &epochs {
            let kids = trace.children(e.id);
            let laid: Vec<_> = wall
                .iter()
                .map(|&name| *kids.iter().find(|s| s.name == name).unwrap())
                .collect();
            for pair in laid.windows(2) {
                assert!(
                    pair[0].end_ns <= pair[1].start_ns,
                    "{} overlaps {}",
                    pair[0].name,
                    pair[1].name
                );
            }
            assert!(
                laid[0].start_ns >= e.start_ns,
                "phases start before the epoch"
            );
            assert!(laid[4].end_ns <= e.end_ns, "phases end after the epoch");
            phase_ns += laid.iter().map(|s| s.duration_ns()).sum::<u64>();
        }
        let epoch_ns: u64 = epochs.iter().map(|e| e.duration_ns()).sum();
        let timings = scenerec_obs::trace::timings(std::slice::from_ref(&trace));
        let epoch = timings.iter().find(|t| t.name == "trainer.epoch").unwrap();
        assert_eq!(epoch.self_ns, epoch_ns - phase_ns);
        // The traced run trains identically to an untraced one.
        let mut model2 = SceneRec::new(SceneRecConfig::default().with_dim(8).with_seed(1), &data);
        let report2 = train(&mut model2, &data, &cfg);
        assert_eq!(report.epochs, report2.epochs);
    }

    #[test]
    fn validation_metrics_are_populated() {
        let data = generate(&GeneratorConfig::tiny(32)).unwrap();
        let mut model = SceneRec::new(
            SceneRecConfig::default()
                .with_dim(8)
                .with_variant(Variant::NoScene)
                .with_seed(2),
            &data,
        );
        let report = train(&mut model, &data, &quick_cfg());
        let rec = report.epochs.last().unwrap();
        assert!(rec.val_ndcg.is_some());
        assert!(rec.val_hr.is_some());
        assert!(report.best_val_ndcg > 0.0);
    }

    #[test]
    fn trained_model_beats_untrained() {
        let data = generate(&GeneratorConfig::tiny(33)).unwrap();
        let base_cfg = SceneRecConfig::default().with_dim(8).with_seed(4);
        let untrained = SceneRec::new(base_cfg.clone(), &data);
        let before = test(&untrained, &data, &quick_cfg());

        let mut model = SceneRec::new(base_cfg, &data);
        let mut cfg = quick_cfg();
        cfg.epochs = 6;
        train(&mut model, &data, &cfg);
        let after = test(&model, &data, &cfg);
        assert!(
            after.metrics.ndcg > before.metrics.ndcg,
            "training did not help: {} -> {}",
            before.metrics.ndcg,
            after.metrics.ndcg
        );
    }

    #[test]
    fn early_stopping_fires_with_tiny_patience() {
        let data = generate(&GeneratorConfig::tiny(34)).unwrap();
        let mut model = SceneRec::new(SceneRecConfig::default().with_dim(4).with_seed(5), &data);
        let mut cfg = quick_cfg();
        cfg.epochs = 50;
        cfg.patience = 1;
        // lr 0 => no learning => validation never improves after epoch 1.
        cfg.learning_rate = 0.0;
        let report = train(&mut model, &data, &cfg);
        assert!(report.early_stopped);
        assert!(report.epochs.len() < 50);
    }

    #[test]
    fn batched_training_learns_too() {
        let data = generate(&GeneratorConfig::tiny(36)).unwrap();
        let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8).with_seed(6), &data);
        let mut cfg = quick_cfg();
        cfg.epochs = 4;
        cfg.eval_every = 0;
        cfg.batch_size = 8;
        let report = train(&mut model, &data, &cfg);
        assert!(report.final_loss() < report.epochs[0].mean_loss);
    }

    #[test]
    fn one_epoch_span_per_epoch() {
        let data = generate(&GeneratorConfig::tiny(37)).unwrap();
        let mut model = SceneRec::new(SceneRecConfig::default().with_dim(4).with_seed(7), &data);
        let mut cfg = quick_cfg();
        cfg.epochs = 3;
        cfg.eval_every = 0;

        let (report, trace) = train_traced(&mut model, &data, &cfg);

        let epochs: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "trainer.epoch")
            .collect();
        assert_eq!(epochs.len(), 3, "one trainer.epoch span per epoch");
        for (i, e) in epochs.iter().enumerate() {
            assert_eq!(e.field("epoch"), Some(&FieldValue::Int(i as i64)));
            let loss = match e.field("mean_loss") {
                Some(FieldValue::Float(f)) => *f as f32,
                other => panic!("mean_loss missing or mistyped: {other:?}"),
            };
            assert_eq!(loss, report.epochs[i].mean_loss);
            // The wall-time breakdown rides on six phase spans per epoch,
            // and no validation ran, so none of them is `trainer.eval`.
            let phases: Vec<&str> = trace
                .children(e.id)
                .iter()
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(
                phases,
                vec![
                    "trainer.sample",
                    "trainer.fanout",
                    "trainer.forward",
                    "trainer.backward",
                    "trainer.reduce",
                    "trainer.step",
                ]
            );
        }
        assert!(trace.span_named("trainer.eval").is_none());
        // No validation ran, so eval time must be zero and the training
        // phases non-trivial.
        assert_eq!(report.phases.eval_ns, 0);
        assert!(report.phases.forward_ns > 0);
        assert!(report.phases.backward_ns > 0);
        assert!(report.phases.step_ns > 0);
        assert!(report.phases.sample_ns > 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let data = generate(&GeneratorConfig::tiny(35)).unwrap();
        let run = || {
            let mut model =
                SceneRec::new(SceneRecConfig::default().with_dim(4).with_seed(9), &data);
            let mut cfg = quick_cfg();
            cfg.eval_every = 0;
            cfg.epochs = 2;
            train(&mut model, &data, &cfg).epochs
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    /// Trains SceneRec with the given thread count and returns the final
    /// parameter values (bit-exact `f32`s) plus the epoch records
    /// (losses + validation metrics).
    fn train_outcome(threads: usize) -> (Vec<Vec<f32>>, Vec<EpochRecord>) {
        train_outcome_at(8, threads)
    }

    /// [`train_outcome`] at batch size `batch`.
    fn train_outcome_at(batch: usize, threads: usize) -> (Vec<Vec<f32>>, Vec<EpochRecord>) {
        let data = generate(&GeneratorConfig::tiny(38)).unwrap();
        let mut model = SceneRec::new(SceneRecConfig::default().with_dim(8).with_seed(11), &data);
        let mut cfg = quick_cfg();
        cfg.epochs = 2;
        cfg.batch_size = batch;
        cfg.threads = threads;
        let report = train(&mut model, &data, &cfg);
        let params = model
            .store()
            .iter()
            .map(|(_, p)| p.value().as_slice().to_vec())
            .collect();
        (params, report.epochs)
    }

    #[test]
    fn parallel_training_bit_identical_across_threads() {
        // The determinism guarantee: same seed => same final parameters
        // and same metrics, bit for bit, at ANY worker count. f32 `==`
        // here is deliberate.
        let (base_params, base_epochs) = train_outcome(1);
        for threads in [2usize, 4, 8] {
            let (params, epochs) = train_outcome(threads);
            assert_eq!(base_params, params, "params diverged at threads={threads}");
            assert_eq!(base_epochs, epochs, "records diverged at threads={threads}");
        }
    }

    #[test]
    fn micro_batch_training_bit_identical_across_threads() {
        // Batch 35 is two full micro-batches and a short one, so every
        // thread count splits the slots differently.
        assert_eq!(35usize.div_ceil(MICRO_BATCH), 3);
        let (base_params, base_epochs) = train_outcome_at(35, 1);
        for threads in [2usize, 3, 8] {
            let (params, epochs) = train_outcome_at(35, threads);
            assert_eq!(base_params, params, "params diverged at threads={threads}");
            assert_eq!(base_epochs, epochs, "records diverged at threads={threads}");
        }
    }

    /// CI runs exactly this test by name to pin the `threads = 4` case.
    #[test]
    fn parallel_training_threads4_matches_serial() {
        let (base_params, base_epochs) = train_outcome(1);
        let (params, epochs) = train_outcome(4);
        assert_eq!(base_params, params);
        assert_eq!(base_epochs, epochs);
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("scenerec-trainer-tests")
            .join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn params_of(model: &SceneRec) -> Vec<Vec<f32>> {
        model
            .store()
            .iter()
            .map(|(_, p)| p.value().as_slice().to_vec())
            .collect()
    }

    #[test]
    fn resumable_matches_itself_and_checkpoints() {
        use scenerec_faults::Injector;

        let data = generate(&GeneratorConfig::tiny(41)).unwrap();
        let mut cfg = quick_cfg();
        cfg.epochs = 4;
        cfg.eval_every = 0;
        let run = |dir: &std::path::Path| {
            let mut model =
                SceneRec::new(SceneRecConfig::default().with_dim(4).with_seed(13), &data);
            let rcfg = ResumableTrainConfig::new(dir, 2);
            let report =
                train_resumable(&mut model, &data, &cfg, &rcfg, &Injector::disabled()).unwrap();
            (params_of(&model), report.epochs)
        };
        let dir_a = tmp_dir("resume_a");
        let dir_b = tmp_dir("resume_b");
        let a = run(&dir_a);
        let b = run(&dir_b);
        assert_eq!(a, b, "resumable training is deterministic");
        assert_eq!(a.1.len(), 4);

        // Checkpoints landed at the cadence (epochs 2 and 4) and resume
        // from a finished run returns the stored report without training.
        let store = CheckpointStore::new(&dir_a, 3);
        let epochs: Vec<usize> = store.list().unwrap().into_iter().map(|(e, _)| e).collect();
        assert_eq!(epochs, vec![2, 4]);
        let mut model = SceneRec::new(SceneRecConfig::default().with_dim(4).with_seed(13), &data);
        let rcfg = ResumableTrainConfig::new(&dir_a, 2);
        let report =
            train_resumable(&mut model, &data, &cfg, &rcfg, &Injector::disabled()).unwrap();
        assert_eq!(report.epochs, a.1, "finished run resumes to its own report");
        assert_eq!(params_of(&model), a.0);
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn crash_and_resume_is_byte_identical() {
        use scenerec_faults::{Fault, FaultPlan, Injector, Trigger};

        let data = generate(&GeneratorConfig::tiny(42)).unwrap();
        let mut cfg = quick_cfg();
        cfg.epochs = 5;
        let model_cfg = SceneRecConfig::default().with_dim(4).with_seed(21);

        // Uninterrupted reference run.
        let clean_dir = tmp_dir("crash_clean");
        let mut clean = SceneRec::new(model_cfg.clone(), &data);
        let rcfg = ResumableTrainConfig::new(&clean_dir, 2);
        let clean_report =
            train_resumable(&mut clean, &data, &cfg, &rcfg, &Injector::disabled()).unwrap();

        // Crash after epoch 2 (probe #3), then resume to completion.
        let dir = tmp_dir("crash_resume");
        let rcfg = ResumableTrainConfig::new(&dir, 2);
        let inj =
            Injector::new(FaultPlan::new(1).inject("train/epoch", Trigger::Nth(3), Fault::Panic));
        let mut model = SceneRec::new(model_cfg.clone(), &data);
        let err = train_resumable(&mut model, &data, &cfg, &rcfg, &inj).unwrap_err();
        assert!(
            matches!(err, TrainRunError::Interrupted { epoch: 2 }),
            "{err}"
        );

        let mut resumed = SceneRec::new(model_cfg, &data);
        let report = train_resumable(&mut resumed, &data, &cfg, &rcfg, &inj).unwrap();
        assert_eq!(
            params_of(&resumed),
            params_of(&clean),
            "crash-resumed parameters must be bit-identical"
        );
        assert_eq!(report.epochs, clean_report.epochs);
        std::fs::remove_dir_all(&clean_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_save_failures_are_survivable() {
        use scenerec_faults::{Fault, FaultPlan, Injector, Trigger};

        let data = generate(&GeneratorConfig::tiny(43)).unwrap();
        let mut cfg = quick_cfg();
        cfg.epochs = 3;
        cfg.eval_every = 0;
        let dir = tmp_dir("save_fail");
        let rcfg = ResumableTrainConfig {
            dir: dir.clone(),
            checkpoint_every: 1,
            retain: 3,
        };
        // Every write fails: training must still complete.
        let inj =
            Injector::new(FaultPlan::new(2).inject("checkpoint/write", Trigger::Always, Fault::Io));
        let mut model = SceneRec::new(SceneRecConfig::default().with_dim(4).with_seed(8), &data);
        let report = train_resumable(&mut model, &data, &cfg, &rcfg, &inj).unwrap();
        assert_eq!(report.epochs.len(), 3);
        assert!(CheckpointStore::new(&dir, 3).list().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
