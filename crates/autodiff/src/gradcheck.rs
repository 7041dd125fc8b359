//! Finite-difference gradient checking.
//!
//! [`check_gradients`] perturbs every scalar weight of a [`ParamStore`]
//! (or a sampled subset for big tables), re-evaluates a user-supplied loss
//! closure, and compares the central difference against the analytic
//! gradient produced by [`Graph::backward`](crate::Graph::backward). The autodiff test-suite runs
//! this over every operator; the `scenerec-core` tests run it over the full
//! SceneRec forward pass.

use crate::param::{GradStore, ParamId, ParamKind, ParamStore};

/// Outcome of a gradient check.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Worst relative error found.
    pub max_rel_error: f32,
    /// Parameter name and flat element index where it occurred.
    pub worst: Option<(String, usize)>,
    /// Number of scalar weights compared.
    pub checked: usize,
}

impl GradCheckReport {
    /// True when the worst relative error is below `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_error <= tol
    }
}

/// Central-difference gradient check for `loss(store)`.
///
/// * `loss` must be a deterministic pure function of the parameter values.
/// * `grads` must already contain the analytic gradients of the same loss
///   (i.e. call [`crate::Graph::backward`] first).
/// * `eps` is the perturbation step (1e-2 is a good choice for `f32`).
/// * `max_per_param` caps how many scalar entries are probed per parameter
///   (entries are taken in order; embedding rows without gradients are
///   skipped since their analytic gradient is an implicit zero that the
///   loss should indeed not depend on — we verify a sample of those too).
pub fn check_gradients(
    store: &mut ParamStore,
    grads: &GradStore,
    eps: f32,
    max_per_param: usize,
    mut loss: impl FnMut(&ParamStore) -> f32,
) -> GradCheckReport {
    let mut max_rel_error = 0.0f32;
    let mut worst = None;
    let mut checked = 0usize;

    for idx in 0..store.len() {
        let id = ParamId(idx);
        let name = store.param(id).name().to_owned();
        let kind = store.param(id).kind();
        let (rows, cols) = store.value(id).shape();

        // Candidate flat indices to probe.
        let candidates: Vec<usize> = match kind {
            ParamKind::Dense => (0..rows * cols).take(max_per_param).collect(),
            ParamKind::Embedding => {
                // Probe the touched rows (dense grads there), in order.
                let mut v: Vec<usize> = grads
                    .sparse(id)
                    .keys()
                    .flat_map(|&r| (0..cols).map(move |c| r as usize * cols + c))
                    .collect();
                v.sort_unstable();
                v.truncate(max_per_param);
                v
            }
        };

        for flat in candidates {
            let analytic = match kind {
                ParamKind::Dense => grads.dense(id).map_or(0.0, |g| g.as_slice()[flat]),
                ParamKind::Embedding => {
                    let r = (flat / cols) as u32;
                    let c = flat % cols;
                    grads.sparse(id).get(r).map_or(0.0, |row| row[c])
                }
            };

            let original = store.value(id).as_slice()[flat];
            store.param_mut(id).value_mut().as_mut_slice()[flat] = original + eps;
            let up = loss(store);
            store.param_mut(id).value_mut().as_mut_slice()[flat] = original - eps;
            let down = loss(store);
            store.param_mut(id).value_mut().as_mut_slice()[flat] = original;

            let numeric = (up - down) / (2.0 * eps);
            let denom = analytic.abs().max(numeric.abs()).max(1e-2);
            let rel = (analytic - numeric).abs() / denom;
            checked += 1;
            if rel > max_rel_error {
                max_rel_error = rel;
                worst = Some((name.clone(), flat));
            }
        }
    }

    GradCheckReport {
        max_rel_error,
        worst,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Act, Graph};
    use scenerec_tensor::Initializer;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a store exercising every op class, returns (store, loss fn).
    fn full_op_loss(store: &ParamStore) -> f32 {
        let w = store.lookup("w").unwrap();
        let b = store.lookup("b").unwrap();
        let e = store.lookup("e").unwrap();

        let mut g = Graph::new(store);
        // Aggregations.
        let s1 = g.embed_sum(e, &[0, 1, 2]);
        let s2 = g.embed_mean(e, &[3, 4]);
        let r0 = g.embed_row(e, 5);
        // Attention: cosine scores -> softmax -> weighted sum.
        let c1 = g.cosine(s1, s2);
        let c2 = g.cosine(s1, r0);
        let scores = g.stack_scalars(&[c1, c2]);
        let alphas = g.softmax(scores);
        let att = g.weighted_embed_sum(e, &[1, 4], alphas);
        // Transform chain.
        let cat = g.concat(&[att, s2]);
        let h = g.affine(w, b, cat);
        let h = g.activation(h, Act::Tanh);
        let h2 = g.linear(w2_id(store), h);
        let h2 = g.activation(h2, Act::Sigmoid);
        // Arithmetic mix.
        let prod = g.mul(h, h);
        let total = g.add(prod, h);
        let scaled = g.scale(total, 0.5);
        let diff = g.sub(scaled, h2);
        let d = g.dot(diff, h2);
        let sm = g.scalar_mul(d, diff);
        let n = g.squared_norm(sm);
        let ls = g.log_sigmoid(d);
        let neg_ls = g.scale(ls, -1.0);
        let partial = g.add(n, neg_ls);
        let su = g.sum(diff);
        let loss = g.add(partial, su);
        g.scalar(loss)
    }

    fn w2_id(store: &ParamStore) -> crate::param::ParamId {
        store.lookup("w2").unwrap()
    }

    fn build_store() -> ParamStore {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        store.add_dense("w", 3, 6, Initializer::XavierUniform, &mut rng);
        store.add_dense("b", 3, 1, Initializer::Uniform(0.1), &mut rng);
        store.add_dense("w2", 3, 3, Initializer::XavierUniform, &mut rng);
        store.add_embedding("e", 8, 3, Initializer::Uniform(0.8), &mut rng);
        store
    }

    #[test]
    fn full_operator_chain_gradcheck() {
        let mut store = build_store();
        let mut grads = GradStore::new(&store);
        {
            let w = store.lookup("w").unwrap();
            let _ = w;
            let mut g = Graph::new(&store);
            // Rebuild the same graph to get analytic grads: reuse the loss
            // builder by replaying it on a tape that we then backward.
            // (full_op_loss builds its own tape, so replicate via closure.)
            drop(g);
            g = Graph::new(&store);
            let loss_var = {
                // Inline copy of full_op_loss body operating on `g`.
                let w = store.lookup("w").unwrap();
                let b = store.lookup("b").unwrap();
                let e = store.lookup("e").unwrap();
                let s1 = g.embed_sum(e, &[0, 1, 2]);
                let s2 = g.embed_mean(e, &[3, 4]);
                let r0 = g.embed_row(e, 5);
                let c1 = g.cosine(s1, s2);
                let c2 = g.cosine(s1, r0);
                let scores = g.stack_scalars(&[c1, c2]);
                let alphas = g.softmax(scores);
                let att = g.weighted_embed_sum(e, &[1, 4], alphas);
                let cat = g.concat(&[att, s2]);
                let h = g.affine(w, b, cat);
                let h = g.activation(h, Act::Tanh);
                let h2 = g.linear(w2_id(&store), h);
                let h2 = g.activation(h2, Act::Sigmoid);
                let prod = g.mul(h, h);
                let total = g.add(prod, h);
                let scaled = g.scale(total, 0.5);
                let diff = g.sub(scaled, h2);
                let d = g.dot(diff, h2);
                let sm = g.scalar_mul(d, diff);
                let n = g.squared_norm(sm);
                let ls = g.log_sigmoid(d);
                let neg_ls = g.scale(ls, -1.0);
                let partial = g.add(n, neg_ls);
                let su = g.sum(diff);
                g.add(partial, su)
            };
            g.backward(loss_var, &mut grads);
        }
        let report = check_gradients(&mut store, &grads, 1e-2, 64, full_op_loss);
        assert!(report.checked > 30, "checked only {}", report.checked);
        assert!(
            report.passes(0.05),
            "max rel error {} at {:?}",
            report.max_rel_error,
            report.worst
        );
    }

    fn split_store() -> ParamStore {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        store.add_dense("w", 4, 7, Initializer::XavierUniform, &mut rng);
        store.add_dense("b", 4, 1, Initializer::Uniform(0.3), &mut rng);
        store.add_embedding("e", 3, 3, Initializer::Uniform(0.8), &mut rng);
        store.add_embedding("f", 2, 4, Initializer::Uniform(0.8), &mut rng);
        store
    }

    /// `tanh(W [a ‖ c] + b)` through the split op, reduced to a scalar
    /// that depends non-linearly on every input.
    fn split_loss<'s>(g: &mut Graph<'s>, store: &'s ParamStore) -> crate::graph::Var {
        let w = store.lookup("w").unwrap();
        let b = store.lookup("b").unwrap();
        let a = g.embed_sum(store.lookup("e").unwrap(), &[0, 2]);
        let c = g.embed_row(store.lookup("f").unwrap(), 1);
        let y = g.affine_split(w, b, a, c);
        let y = g.activation(y, Act::Tanh);
        let sq = g.squared_norm(y);
        let s = g.sum(y);
        g.add(sq, s)
    }

    /// The split affine (Eq. 14's first layer): W, b and both inputs.
    #[test]
    fn affine_split_gradcheck() {
        let mut store = split_store();
        let mut grads = GradStore::new(&store);
        {
            let mut g = Graph::new(&store);
            let loss = split_loss(&mut g, &store);
            g.backward(loss, &mut grads);
        }
        let e = store.lookup("e").unwrap();
        let f = store.lookup("f").unwrap();
        assert_eq!(grads.sparse(e).keys().copied().collect::<Vec<_>>(), [0, 2]);
        assert_eq!(grads.sparse(f).keys().copied().collect::<Vec<_>>(), [1]);
        let report = check_gradients(&mut store, &grads, 1e-2, 64, |s| {
            let mut g = Graph::new(s);
            let loss = split_loss(&mut g, s);
            g.scalar(loss)
        });
        // 28 weights + 4 biases + 2 rows of a + 1 row of c.
        assert_eq!(report.checked, 28 + 4 + 6 + 4);
        assert!(
            report.passes(0.02),
            "max rel error {} at {:?}",
            report.max_rel_error,
            report.worst
        );
    }

    #[test]
    fn report_passes_threshold_logic() {
        let r = GradCheckReport {
            max_rel_error: 0.01,
            worst: None,
            checked: 10,
        };
        assert!(r.passes(0.05));
        assert!(!r.passes(0.001));
    }
}
