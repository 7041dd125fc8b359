//! Small neural-network building blocks composed from tape operators:
//! dense layers and multi-layer perceptrons (the `F(·)` of Eqs. 13–14).

use crate::graph::{Act, Graph, Var};
use crate::param::{ParamId, ParamStore};
use rand::Rng;
use scenerec_tensor::Initializer;

/// A dense (fully connected) layer `y = act(W x + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    w: ParamId,
    b: ParamId,
    act: Act,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Registers a dense layer's parameters in `store` under
    /// `{name}.w` / `{name}.b`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        act: Act,
        rng: &mut impl Rng,
    ) -> Self {
        let init = match act {
            Act::Relu | Act::LeakyRelu(_) => Initializer::HeUniform,
            _ => Initializer::XavierUniform,
        };
        let w = store.add_dense(&format!("{name}.w"), out_dim, in_dim, init, rng);
        let b = store.add_dense(&format!("{name}.b"), out_dim, 1, Initializer::Zeros, rng);
        Dense {
            w,
            b,
            act,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer on the tape.
    pub fn forward(&self, g: &mut Graph<'_>, x: Var) -> Var {
        let y = g.affine(self.w, self.b, x);
        self.activate(g, y)
    }

    /// Applies the layer to `[a ‖ c]` without building the
    /// concatenation ([`Graph::affine_split`]).
    pub fn forward_split(&self, g: &mut Graph<'_>, a: Var, c: Var) -> Var {
        let y = g.affine_split(self.w, self.b, a, c);
        self.activate(g, y)
    }

    fn activate(&self, g: &mut Graph<'_>, y: Var) -> Var {
        match self.act {
            Act::Identity => y,
            act => g.activation(y, act),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight parameter id.
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// Bias parameter id.
    pub fn bias(&self) -> ParamId {
        self.b
    }

    /// The layer's activation (the serving path freezes layers into plain
    /// matrices and must replay the exact same nonlinearity).
    pub fn act(&self) -> Act {
        self.act
    }
}

/// A multi-layer perceptron: hidden layers with a shared activation, plus a
/// final layer with its own activation (identity for score heads).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[128, 64, 1]` for a
    /// two-layer head mapping 128 → 64 → 1.
    ///
    /// `hidden_act` is used on all but the last layer; `out_act` on the
    /// last.
    ///
    /// # Panics
    /// Panics when fewer than two sizes are given.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        sizes: &[usize],
        hidden_act: Act,
        out_act: Act,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "MLP needs at least input and output sizes"
        );
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let act = if i == sizes.len() - 2 {
                out_act
            } else {
                hidden_act
            };
            layers.push(Dense::new(
                store,
                &format!("{name}.{i}"),
                sizes[i],
                sizes[i + 1],
                act,
                rng,
            ));
        }
        Mlp { layers }
    }

    /// Applies the MLP on the tape.
    pub fn forward(&self, g: &mut Graph<'_>, x: Var) -> Var {
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(g, h);
        }
        h
    }

    /// Applies the MLP to `[a ‖ c]`, its first layer reading the two
    /// parts in place ([`Dense::forward_split`]) — Eq. 14's rating head
    /// on `[m_u ‖ m_i]`.
    pub fn forward_split(&self, g: &mut Graph<'_>, a: Var, c: Var) -> Var {
        let mut h = self.layers[0].forward_split(g, a, c);
        for layer in &self.layers[1..] {
            h = layer.forward(g, h);
        }
        h
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Input dimension of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension of the last layer.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// The layers in application order (read-only; used by checkpoint
    /// export and the frozen serving engine).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::GradStore;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_shapes_and_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = Dense::new(&mut store, "l", 4, 2, Act::Relu, &mut rng);
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 2);
        let mut g = Graph::new(&store);
        let x = g.constant_vec(&[1.0, -1.0, 0.5, 2.0]);
        let y = layer.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (2, 1));
        // ReLU output is non-negative.
        assert!(g.value(y).as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn identity_activation_skips_node() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = Dense::new(&mut store, "l", 2, 2, Act::Identity, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.constant_vec(&[1.0, 1.0]);
        let before = g.len();
        let _ = layer.forward(&mut g, x);
        assert_eq!(
            g.len() - before,
            1,
            "identity should add only the affine node"
        );
    }

    #[test]
    fn mlp_composes_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[6, 4, 1],
            Act::Relu,
            Act::Identity,
            &mut rng,
        );
        assert_eq!(mlp.depth(), 2);
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 1);
        let mut g = Graph::new(&store);
        let x = g.constant_vec(&[0.1; 6]);
        let y = mlp.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (1, 1));
    }

    #[test]
    fn mlp_forward_split_reads_both_parts() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[5, 4, 1],
            Act::Relu,
            Act::Identity,
            &mut rng,
        );
        let mut g = Graph::new(&store);
        let a = g.constant_vec(&[0.5, -1.0]);
        let c = g.constant_vec(&[0.25, 2.0, -0.75]);
        let before = g.len();
        let y = mlp.forward_split(&mut g, a, c);
        // split affine + relu, then the output affine: no concat node.
        assert_eq!(g.len() - before, 3);
        let cat = g.concat(&[a, c]);
        let z = mlp.forward(&mut g, cat);
        assert!((g.scalar(y) - g.scalar(z)).abs() < 1e-5);
    }

    #[test]
    fn mlp_trains_toward_target() {
        use crate::optim::{Optimizer, Sgd};
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[2, 8, 1],
            Act::Tanh,
            Act::Identity,
            &mut rng,
        );
        let mut opt = Sgd::new(0.1);
        let mut grads = GradStore::new(&store);
        let mut final_loss = f32::MAX;
        for _ in 0..300 {
            grads.clear();
            let mut g = Graph::new(&store);
            let x = g.constant_vec(&[0.5, -0.5]);
            let y = mlp.forward(&mut g, x);
            let t = g.constant_scalar(0.75);
            let d = g.sub(y, t);
            let loss = g.mul(d, d);
            final_loss = g.scalar(loss);
            g.backward(loss, &mut grads);
            opt.step(&mut store, &grads);
        }
        assert!(final_loss < 1e-4, "loss={final_loss}");
    }

    #[test]
    #[should_panic(expected = "MLP needs at least input and output sizes")]
    fn mlp_rejects_single_size() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let _ = Mlp::new(&mut store, "m", &[4], Act::Relu, Act::Identity, &mut rng);
    }
}
