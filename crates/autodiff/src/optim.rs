//! Sparse-aware first-order optimizers.
//!
//! The paper tunes SceneRec with **RMSProp** (§5.3); SGD, Momentum and Adam
//! are provided for the baselines and ablations. All optimizers understand
//! the dense/sparse split of [`GradStore`]: for embedding tables only the
//! touched rows (and their per-row optimizer state) are updated, which is
//! the standard sparse-update semantics of DL frameworks.

use crate::param::{GradStore, ParamId, ParamKind, ParamStore};
use scenerec_tensor::linalg;
use scenerec_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A first-order optimizer over a [`ParamStore`].
pub trait Optimizer {
    /// Applies one update step from the accumulated gradients.
    fn step(&mut self, store: &mut ParamStore, grads: &GradStore);

    /// The (current) learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules / grid search).
    fn set_learning_rate(&mut self, lr: f32);

    /// Snapshots the optimizer's internal state (moment estimates, step
    /// counter) for checkpointing. Stateless optimizers return an empty
    /// snapshot.
    fn export_state(&self) -> OptimState;

    /// Restores a snapshot previously produced by
    /// [`Optimizer::export_state`].
    ///
    /// # Errors
    /// Rejects snapshots from a different optimizer kind or with an
    /// unexpected slot layout; per-parameter shapes are re-validated lazily
    /// by `ensure_state` on the next step.
    fn import_state(&mut self, state: &OptimState) -> Result<(), String>;
}

/// A serializable snapshot of an optimizer's internal state.
///
/// Training resumed from a checkpoint without this state silently restarts
/// the second-moment estimates (RMSProp's `cache`, Adam's `m`/`v`) from
/// zero, which changes the effective step size for many epochs. The
/// checkpoint format therefore carries the full state: a `kind` tag, the
/// step counter (`t`, Adam's bias correction), and one [`OptimSlot`] per
/// state tensor family in parameter-store order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimState {
    /// Producing optimizer: `"sgd"`, `"momentum"`, `"rmsprop"` or
    /// `"adam"`.
    pub kind: String,
    /// Step counter (Adam's bias-correction `t`; 0 elsewhere).
    pub t: u64,
    /// Named state-tensor families, one matrix per parameter.
    pub slots: Vec<OptimSlot>,
}

/// One family of per-parameter state tensors (e.g. RMSProp's `cache`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimSlot {
    /// Family name, stable across versions.
    pub name: String,
    /// One tensor per parameter, in [`ParamStore`] order. Empty when the
    /// optimizer has not taken a step yet.
    pub tensors: Vec<Matrix>,
}

impl OptimState {
    /// A snapshot with no state tensors.
    pub fn stateless(kind: &str) -> Self {
        OptimState {
            kind: kind.to_owned(),
            t: 0,
            slots: Vec::new(),
        }
    }

    fn expect_kind(&self, want: &str) -> Result<(), String> {
        if self.kind == want {
            Ok(())
        } else {
            Err(format!(
                "optimizer state kind `{}` cannot restore a `{want}` optimizer",
                self.kind
            ))
        }
    }

    fn slot(&self, name: &str) -> Result<Vec<Matrix>, String> {
        self.slots
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.tensors.clone())
            .ok_or_else(|| format!("optimizer state is missing slot `{name}`"))
    }
}

/// Weight decay configuration shared by all optimizers.
///
/// Implements the `λ‖Θ‖²` term of Eq. 15 as *decoupled* decay applied to
/// the parameters that received gradients this step: dense parameters decay
/// fully, embedding tables decay only on touched rows (the standard BPR
/// convention, since untouched entities took no part in the loss).
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightDecay(pub f32);

impl WeightDecay {
    fn apply(self, store: &mut ParamStore, grads: &GradStore, lr: f32) {
        if self.0 == 0.0 {
            return;
        }
        let factor = lr * 2.0 * self.0; // d/dθ λθ² = 2λθ
        for idx in 0..store.len() {
            let id = ParamId(idx);
            match store.param(id).kind() {
                ParamKind::Dense => {
                    if grads.dense(id).is_some() {
                        store
                            .param_mut(id)
                            .value_mut()
                            .map_inplace(|v| v - factor * v);
                    }
                }
                ParamKind::Embedding => {
                    let value = store.param_mut(id).value_mut();
                    for &r in grads.sparse(id).keys() {
                        for v in value.row_mut(r as usize) {
                            *v -= factor * *v;
                        }
                    }
                }
            }
        }
    }
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    /// L2 weight decay (λ of Eq. 15).
    pub weight_decay: WeightDecay,
}

impl Sgd {
    /// SGD with the given learning rate and no weight decay.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            weight_decay: WeightDecay(0.0),
        }
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, lambda: f32) -> Self {
        self.weight_decay = WeightDecay(lambda);
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &GradStore) {
        for idx in 0..store.len() {
            let id = ParamId(idx);
            match store.param(id).kind() {
                ParamKind::Dense => {
                    if let Some(g) = grads.dense(id) {
                        linalg::add_scaled(store.param_mut(id).value_mut(), -self.lr, g);
                    }
                }
                ParamKind::Embedding => {
                    let value = store.param_mut(id).value_mut();
                    for (r, g) in grads.sparse(id) {
                        linalg::axpy(-self.lr, g, value.row_mut(r as usize));
                    }
                }
            }
        }
        self.weight_decay.apply(store, grads, self.lr);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimState {
        OptimState::stateless("sgd")
    }

    fn import_state(&mut self, state: &OptimState) -> Result<(), String> {
        state.expect_kind("sgd")
    }
}

/// SGD with classical momentum.
#[derive(Debug, Clone)]
pub struct Momentum {
    lr: f32,
    beta: f32,
    /// L2 weight decay (λ of Eq. 15).
    pub weight_decay: WeightDecay,
    velocity: Vec<Matrix>,
}

impl Momentum {
    /// Momentum SGD with coefficient `beta` (typically 0.9).
    pub fn new(lr: f32, beta: f32) -> Self {
        Momentum {
            lr,
            beta,
            weight_decay: WeightDecay(0.0),
            velocity: Vec::new(),
        }
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        if self.velocity.len() != store.len() {
            self.velocity = store
                .iter()
                .map(|(_, p)| {
                    let (r, c) = p.value().shape();
                    Matrix::zeros(r, c)
                })
                .collect();
        }
    }
}

impl Optimizer for Momentum {
    fn step(&mut self, store: &mut ParamStore, grads: &GradStore) {
        self.ensure_state(store);
        // v = beta v + g ; θ -= lr v, fused per element.
        let (beta, lr) = (self.beta, self.lr);
        let update = |v: &mut [f32], g: &[f32], p: &mut [f32]| {
            for ((v, &g), p) in v.iter_mut().zip(g).zip(p) {
                *v *= beta;
                *v += g;
                *p += -lr * *v;
            }
        };
        for idx in 0..store.len() {
            let id = ParamId(idx);
            let vel = &mut self.velocity[idx];
            let value = store.param_mut(id).value_mut();
            match grads.kind(id) {
                ParamKind::Dense => {
                    if let Some(g) = grads.dense(id) {
                        update(vel.as_mut_slice(), g.as_slice(), value.as_mut_slice());
                    }
                }
                ParamKind::Embedding => {
                    for (r, g) in grads.sparse(id) {
                        update(vel.row_mut(r as usize), g, value.row_mut(r as usize));
                    }
                }
            }
        }
        self.weight_decay.apply(store, grads, self.lr);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimState {
        OptimState {
            kind: "momentum".to_owned(),
            t: 0,
            slots: vec![OptimSlot {
                name: "velocity".to_owned(),
                tensors: self.velocity.clone(),
            }],
        }
    }

    fn import_state(&mut self, state: &OptimState) -> Result<(), String> {
        state.expect_kind("momentum")?;
        self.velocity = state.slot("velocity")?;
        Ok(())
    }
}

/// RMSProp — the optimizer the paper uses (§5.3, citing Goodfellow et al.).
///
/// `cache = ρ·cache + (1-ρ)·g²; θ -= lr · g / (sqrt(cache) + ε)`.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    rho: f32,
    eps: f32,
    /// L2 weight decay (λ of Eq. 15).
    pub weight_decay: WeightDecay,
    cache: Vec<Matrix>,
}

impl RmsProp {
    /// RMSProp with decay 0.9 and ε = 1e-8 (framework defaults).
    pub fn new(lr: f32) -> Self {
        RmsProp {
            lr,
            rho: 0.9,
            eps: 1e-8,
            weight_decay: WeightDecay(0.0),
            cache: Vec::new(),
        }
    }

    /// Overrides the squared-gradient decay factor ρ.
    pub fn with_rho(mut self, rho: f32) -> Self {
        self.rho = rho;
        self
    }

    /// Adds L2 weight decay (the λ grid of §5.3).
    pub fn with_weight_decay(mut self, lambda: f32) -> Self {
        self.weight_decay = WeightDecay(lambda);
        self
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        if self.cache.len() != store.len() {
            self.cache = store
                .iter()
                .map(|(_, p)| {
                    let (r, c) = p.value().shape();
                    Matrix::zeros(r, c)
                })
                .collect();
        }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, store: &mut ParamStore, grads: &GradStore) {
        self.ensure_state(store);
        let (rho, eps, lr) = (self.rho, self.eps, self.lr);
        for idx in 0..store.len() {
            let id = ParamId(idx);
            let cache = &mut self.cache[idx];
            match store.param(id).kind() {
                ParamKind::Dense => {
                    if let Some(g) = grads.dense(id) {
                        let value = store.param_mut(id).value_mut();
                        for ((c, &gv), v) in cache
                            .as_mut_slice()
                            .iter_mut()
                            .zip(g.as_slice())
                            .zip(value.as_mut_slice())
                        {
                            *c = rho * *c + (1.0 - rho) * gv * gv;
                            *v -= lr * gv / (c.sqrt() + eps);
                        }
                    }
                }
                ParamKind::Embedding => {
                    let value = store.param_mut(id).value_mut();
                    for (r, g) in grads.sparse(id) {
                        let crow = cache.row_mut(r as usize);
                        for ((c, &gv), v) in crow.iter_mut().zip(g).zip(value.row_mut(r as usize)) {
                            *c = rho * *c + (1.0 - rho) * gv * gv;
                            *v -= lr * gv / (c.sqrt() + eps);
                        }
                    }
                }
            }
        }
        self.weight_decay.apply(store, grads, self.lr);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimState {
        OptimState {
            kind: "rmsprop".to_owned(),
            t: 0,
            slots: vec![OptimSlot {
                name: "cache".to_owned(),
                tensors: self.cache.clone(),
            }],
        }
    }

    fn import_state(&mut self, state: &OptimState) -> Result<(), String> {
        state.expect_kind("rmsprop")?;
        self.cache = state.slot("cache")?;
        Ok(())
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// L2 weight decay (λ of Eq. 15).
    pub weight_decay: WeightDecay,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the standard defaults β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: WeightDecay(0.0),
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, lambda: f32) -> Self {
        self.weight_decay = WeightDecay(lambda);
        self
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        if self.m.len() != store.len() {
            let zeros = |p: &crate::param::Param| {
                let (r, c) = p.value().shape();
                Matrix::zeros(r, c)
            };
            self.m = store.iter().map(|(_, p)| zeros(p)).collect();
            self.v = store.iter().map(|(_, p)| zeros(p)).collect();
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &GradStore) {
        self.ensure_state(store);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        for idx in 0..store.len() {
            let id = ParamId(idx);
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            match store.param(id).kind() {
                ParamKind::Dense => {
                    if let Some(g) = grads.dense(id) {
                        let value = store.param_mut(id).value_mut();
                        for (((mv, vv), &gv), p) in m
                            .as_mut_slice()
                            .iter_mut()
                            .zip(v.as_mut_slice())
                            .zip(g.as_slice())
                            .zip(value.as_mut_slice())
                        {
                            *mv = b1 * *mv + (1.0 - b1) * gv;
                            *vv = b2 * *vv + (1.0 - b2) * gv * gv;
                            let mhat = *mv / bc1;
                            let vhat = *vv / bc2;
                            *p -= lr * mhat / (vhat.sqrt() + eps);
                        }
                    }
                }
                ParamKind::Embedding => {
                    let value = store.param_mut(id).value_mut();
                    for (r, g) in grads.sparse(id) {
                        let r = r as usize;
                        for (((mv, vv), &gv), p) in m
                            .row_mut(r)
                            .iter_mut()
                            .zip(v.row_mut(r))
                            .zip(g)
                            .zip(value.row_mut(r))
                        {
                            *mv = b1 * *mv + (1.0 - b1) * gv;
                            *vv = b2 * *vv + (1.0 - b2) * gv * gv;
                            let mhat = *mv / bc1;
                            let vhat = *vv / bc2;
                            *p -= lr * mhat / (vhat.sqrt() + eps);
                        }
                    }
                }
            }
        }
        self.weight_decay.apply(store, grads, self.lr);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimState {
        OptimState {
            kind: "adam".to_owned(),
            t: self.t,
            slots: vec![
                OptimSlot {
                    name: "m".to_owned(),
                    tensors: self.m.clone(),
                },
                OptimSlot {
                    name: "v".to_owned(),
                    tensors: self.v.clone(),
                },
            ],
        }
    }

    fn import_state(&mut self, state: &OptimState) -> Result<(), String> {
        state.expect_kind("adam")?;
        self.t = state.t;
        self.m = state.slot("m")?;
        self.v = state.slot("v")?;
        Ok(())
    }
}

/// Clips gradients so the global norm does not exceed `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_global_norm(grads: &mut GradStore, max_norm: f32) -> f32 {
    let norm = grads.global_norm();
    if norm > max_norm && norm > 0.0 {
        grads.scale(max_norm / norm);
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use scenerec_tensor::Initializer;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Minimizes f(θ) = ‖θ - target‖² over a dense param and an embedding
    /// row with the given optimizer; returns the final squared distance.
    fn minimize(mut opt: impl Optimizer, steps: usize) -> f32 {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let w = store.add_dense("w", 3, 1, Initializer::Uniform(1.0), &mut rng);
        let e = store.add_embedding("e", 5, 3, Initializer::Uniform(1.0), &mut rng);
        let target = [0.3f32, -0.2, 0.9];

        let mut grads = GradStore::new(&store);
        for _ in 0..steps {
            grads.clear();
            let mut g = Graph::new(&store);
            let wv = g.embed_row_like_dense(w);
            let ev = g.embed_row(e, 2);
            let t = g.constant_vec(&target);
            let d1 = g.sub(wv, t);
            let d2 = g.sub(ev, t);
            let n1 = g.squared_norm(d1);
            let n2 = g.squared_norm(d2);
            let loss = g.add(n1, n2);
            g.backward(loss, &mut grads);
            opt.step(&mut store, &grads);
        }

        let wv = store.value(w).as_slice().to_vec();
        let ev = store.value(e).row(2).to_vec();
        let dist =
            |xs: &[f32]| -> f32 { xs.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum() };
        dist(&wv) + dist(&ev)
    }

    // Helper: treat a 3x1 dense param as a differentiable vector by wiring
    // it through an identity linear op. Implemented as an extension trait to
    // keep Graph's public surface focused.
    trait DenseAsVec {
        fn embed_row_like_dense(&mut self, w: crate::param::ParamId) -> crate::graph::Var;
    }
    impl DenseAsVec for Graph<'_> {
        fn embed_row_like_dense(&mut self, w: crate::param::ParamId) -> crate::graph::Var {
            // y = W x with x = [1]: gradient flows into W as outer(g, 1) = g.
            let one = self.constant_vec(&[1.0]);
            self.linear(w, one)
        }
    }

    #[test]
    fn sgd_converges() {
        assert!(minimize(Sgd::new(0.1), 200) < 1e-4);
    }

    #[test]
    fn momentum_converges() {
        assert!(minimize(Momentum::new(0.05, 0.9), 200) < 1e-4);
    }

    #[test]
    fn rmsprop_converges() {
        // RMSProp's effective step stays ~lr near the optimum, so use a
        // small lr and a tolerance matched to lr².
        assert!(minimize(RmsProp::new(0.01), 600) < 5e-3);
    }

    #[test]
    fn adam_converges() {
        assert!(minimize(Adam::new(0.05), 300) < 1e-3);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.add_dense("w", 2, 2, Initializer::Constant(1.0), &mut rng);
        let mut grads = GradStore::new(&store);
        // Zero gradient but mark the param as touched.
        grads.add_dense(w, &Matrix::zeros(2, 2));
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        opt.step(&mut store, &grads);
        // θ -= lr*2λθ = 1 - 0.1*1.0*1 = 0.9
        for &v in store.value(w).as_slice() {
            assert!((v - 0.9).abs() < 1e-6);
        }
    }

    #[test]
    fn weight_decay_skips_untouched_embedding_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let e = store.add_embedding("e", 3, 2, Initializer::Constant(1.0), &mut rng);
        let mut grads = GradStore::new(&store);
        grads.add_row(e, 1, &[0.0, 0.0]);
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        opt.step(&mut store, &grads);
        assert_eq!(store.value(e).row(0), &[1.0, 1.0]); // untouched
        assert!((store.value(e).get(1, 0) - 0.9).abs() < 1e-6); // decayed
    }

    #[test]
    fn clip_global_norm_caps() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.add_dense("w", 1, 4, Initializer::Zeros, &mut rng);
        let mut grads = GradStore::new(&store);
        grads.add_dense(w, &Matrix::full(1, 4, 3.0)); // norm 6
        let pre = clip_global_norm(&mut grads, 1.5);
        assert!((pre - 6.0).abs() < 1e-5);
        assert!((grads.global_norm() - 1.5).abs() < 1e-5);
        // Below the cap: untouched.
        let pre2 = clip_global_norm(&mut grads, 10.0);
        assert!((pre2 - 1.5).abs() < 1e-5);
        assert!((grads.global_norm() - 1.5).abs() < 1e-5);
    }

    #[test]
    fn set_learning_rate_round_trip() {
        let mut o = RmsProp::new(0.01);
        assert_eq!(o.learning_rate(), 0.01);
        o.set_learning_rate(0.1);
        assert_eq!(o.learning_rate(), 0.1);
    }

    /// Takes a few steps with `opt`, exports its state, restores it into
    /// `fresh`, and asserts both produce identical parameters on the next
    /// step (the resume-from-checkpoint contract).
    fn assert_state_resumes(mut opt: Box<dyn Optimizer>, mut fresh: Box<dyn Optimizer>) {
        let build = || {
            let mut rng = StdRng::seed_from_u64(11);
            let mut store = ParamStore::new();
            store.add_dense("w", 3, 2, Initializer::Uniform(1.0), &mut rng);
            store
        };
        let mut store = build();
        let grad = Matrix::full(3, 2, 0.3);
        let step = |o: &mut dyn Optimizer, s: &mut ParamStore| {
            let mut grads = GradStore::new(s);
            grads.add_dense(ParamId(0), &grad);
            o.step(s, &grads);
        };
        for _ in 0..3 {
            step(opt.as_mut(), &mut store);
        }
        let state = opt.export_state();

        // Restore into a fresh optimizer over a parameter copy that took
        // the same three steps.
        let mut store2 = build();
        let mut warm = opt; // keep stepping the original as the reference
        for _ in 0..3 {
            // Replay the first three steps on the fresh parameter copy so
            // both stores agree before the probed step.
            step(fresh.as_mut(), &mut store2);
        }
        fresh.import_state(&state).unwrap();
        // One more step each must now match bit for bit.
        step(warm.as_mut(), &mut store);
        step(fresh.as_mut(), &mut store2);
        assert_eq!(
            store.value(ParamId(0)).as_slice(),
            store2.value(ParamId(0)).as_slice()
        );
    }

    #[test]
    fn exported_state_resumes_all_optimizers() {
        assert_state_resumes(Box::new(Sgd::new(0.1)), Box::new(Sgd::new(0.1)));
        assert_state_resumes(
            Box::new(Momentum::new(0.05, 0.9)),
            Box::new(Momentum::new(0.05, 0.9)),
        );
        assert_state_resumes(Box::new(RmsProp::new(0.01)), Box::new(RmsProp::new(0.01)));
        assert_state_resumes(Box::new(Adam::new(0.05)), Box::new(Adam::new(0.05)));
    }

    #[test]
    fn import_rejects_kind_mismatch() {
        let state = RmsProp::new(0.01).export_state();
        let mut adam = Adam::new(0.01);
        let err = adam.import_state(&state).unwrap_err();
        assert!(err.contains("rmsprop"), "{err}");
    }

    #[test]
    fn import_rejects_missing_slot() {
        let mut state = Adam::new(0.01).export_state();
        state.slots.retain(|s| s.name != "v");
        let mut adam = Adam::new(0.01);
        let err = adam.import_state(&state).unwrap_err();
        assert!(err.contains("missing slot `v`"), "{err}");
    }
}
