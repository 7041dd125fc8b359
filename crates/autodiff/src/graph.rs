//! The define-by-run tape: differentiable operators and the backward sweep.
//!
//! A [`Graph`] borrows a [`ParamStore`] immutably; every operator call
//! computes its value eagerly (so shapes fail fast at the call site) and
//! records an `Op` describing how to route gradients backwards.
//! [`Graph::backward`] seeds the loss node with gradient `1`, walks the tape
//! in reverse creation order (a valid reverse topological order, since an
//! op can only reference earlier nodes), and accumulates parameter
//! gradients — dense or row-sparse — into a [`GradStore`].
//!
//! All vector-valued nodes are **column vectors** (`n x 1`); scalar nodes
//! are `1 x 1`. Embedding rows are transposed into column vectors on
//! gather, matching the `W · x` orientation of Eqs. (1)–(14).

use crate::param::{GradStore, ParamId, ParamStore};
use scenerec_tensor::linalg;
use scenerec_tensor::numeric;
use scenerec_tensor::Matrix;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Index of the node on its tape (diagnostics only).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Element-wise activation functions (the `σ` of Eqs. 1, 2, 7, 12 and the
/// hidden activations of the MLPs in Eqs. 13–14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Act {
    /// Identity (no-op) — used for final scoring layers where BPR needs an
    /// unbounded score.
    Identity,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
}

impl Act {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Act::Identity => x,
            Act::Sigmoid => numeric::sigmoid(x),
            Act::Relu => numeric::relu(x),
            Act::Tanh => numeric::tanh(x),
            Act::LeakyRelu(a) => numeric::leaky_relu(x, a),
        }
    }

    /// Applies the activation to every element of `xs` in place, bit for
    /// bit as [`Act::apply`] would. The variant is matched once per call,
    /// not per element, so each arm's loop is straight-line code the
    /// compiler can vectorize.
    pub fn apply_all(self, xs: &mut [f32]) {
        fn each(xs: &mut [f32], f: impl Fn(f32) -> f32) {
            for v in xs {
                *v = f(*v);
            }
        }
        match self {
            Act::Identity => {}
            Act::Sigmoid => each(xs, numeric::sigmoid),
            Act::Relu => each(xs, numeric::relu),
            Act::Tanh => each(xs, numeric::tanh),
            Act::LeakyRelu(a) => each(xs, |x| numeric::leaky_relu(x, a)),
        }
    }

    /// Derivative given both the input `x` and the output `y = f(x)`.
    #[inline]
    fn grad(self, x: f32, y: f32) -> f32 {
        match self {
            Act::Identity => 1.0,
            Act::Sigmoid => numeric::sigmoid_grad_from_output(y),
            Act::Relu => numeric::relu_grad(x),
            Act::Tanh => numeric::tanh_grad_from_output(y),
            Act::LeakyRelu(a) => numeric::leaky_relu_grad(x, a),
        }
    }
}

/// Tape record: how a node was produced.
#[derive(Debug, Clone)]
enum Op {
    /// Leaf with no gradient flow.
    Constant,
    /// Single embedding row, transposed to a column vector.
    EmbedRow { table: ParamId, row: u32 },
    /// Sum of embedding rows (Eqs. 1–3 neighbor aggregation), optionally
    /// scaled (mean aggregation for the `noatt` variant).
    EmbedSum {
        table: ParamId,
        rows: Vec<u32>,
        scale: f32,
    },
    /// `Σ w_i · row_i` with differentiable weights (attention output,
    /// Eqs. 4 and 9).
    WeightedEmbedSum {
        table: ParamId,
        rows: Vec<u32>,
        weights: Var,
    },
    /// `W x + b`; with a second input `c`, the split form
    /// `(W[:, ..l] x + b) + W[:, l..] c` (`l = x.rows()`), which is
    /// `W [x ‖ c] + b` without the concatenation.
    Affine {
        w: ParamId,
        b: ParamId,
        x: Var,
        c: Option<Var>,
    },
    /// `W x`.
    Linear { w: ParamId, x: Var },
    /// `a + b` (element-wise).
    Add { a: Var, b: Var },
    /// `a - b` (element-wise).
    Sub { a: Var, b: Var },
    /// `a ⊙ b` (element-wise).
    Mul { a: Var, b: Var },
    /// `c · a`.
    Scale { a: Var, c: f32 },
    /// `s · v` where `s` is a scalar node.
    ScalarMul { s: Var, v: Var },
    /// `aᵀ b` producing a scalar.
    Dot { a: Var, b: Var },
    /// Vertical concatenation of column vectors (the `‖` of Eqs. 7, 12–14).
    Concat { parts: Vec<Var> },
    /// Element-wise activation.
    Activation { a: Var, act: Act },
    /// Softmax over a column vector (Eqs. 6, 11).
    Softmax { a: Var },
    /// Stacks scalar nodes into a column vector (attention score vectors).
    StackScalars { parts: Vec<Var> },
    /// Cosine similarity of two column vectors (Eqs. 5, 10).
    Cosine { a: Var, b: Var },
    /// Selects one element of a column vector as a scalar.
    Select { a: Var, index: usize },
    /// Sum of all elements, producing a scalar.
    Sum { a: Var },
    /// Element-wise `ln σ(x)` (the BPR kernel of Eq. 15).
    LogSigmoid { a: Var },
    /// Squared L2 norm producing a scalar (explicit regularizers).
    SquaredNorm { a: Var },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// A define-by-run computation tape borrowing a [`ParamStore`].
pub struct Graph<'s> {
    store: &'s ParamStore,
    nodes: Vec<Node>,
}

impl<'s> Graph<'s> {
    /// Creates an empty tape over `store`.
    pub fn new(store: &'s ParamStore) -> Self {
        Graph {
            store,
            nodes: Vec::with_capacity(256),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no ops have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Value of a scalar (`1 x 1`) node.
    ///
    /// # Panics
    /// Panics if the node is not scalar.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = &self.nodes[v.0].value;
        assert_eq!(m.shape(), (1, 1), "node is not a scalar");
        m.get(0, 0)
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        let id = self.nodes.len();
        self.nodes.push(Node { value, op });
        Var(id)
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// A constant (non-differentiable) node.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Constant)
    }

    /// A constant column vector from a slice.
    pub fn constant_vec(&mut self, values: &[f32]) -> Var {
        self.constant(Matrix::col_vector(values))
    }

    /// A constant scalar node.
    pub fn constant_scalar(&mut self, value: f32) -> Var {
        self.constant(Matrix::full(1, 1, value))
    }

    /// Gathers one embedding row as a column vector.
    pub fn embed_row(&mut self, table: ParamId, row: u32) -> Var {
        let t = self.store.value(table);
        let value = Matrix::col_vector(t.row(row as usize));
        self.push(value, Op::EmbedRow { table, row })
    }

    /// Sum of embedding rows: `Σ_{r ∈ rows} e_r` (zero vector when `rows`
    /// is empty).
    pub fn embed_sum(&mut self, table: ParamId, rows: &[u32]) -> Var {
        self.embed_sum_scaled(table, rows, 1.0)
    }

    /// Mean of embedding rows (zero vector when `rows` is empty).
    pub fn embed_mean(&mut self, table: ParamId, rows: &[u32]) -> Var {
        let scale = if rows.is_empty() {
            0.0
        } else {
            1.0 / rows.len() as f32
        };
        self.embed_sum_scaled(table, rows, scale)
    }

    /// `scale · Σ e_r` — shared implementation of sum/mean aggregation.
    pub fn embed_sum_scaled(&mut self, table: ParamId, rows: &[u32], scale: f32) -> Var {
        let t = self.store.value(table);
        let dim = t.cols();
        let mut acc = vec![0.0f32; dim];
        for &r in rows {
            linalg::axpy(scale, t.row(r as usize), &mut acc);
        }
        self.push(
            Matrix::col_vector(&acc),
            Op::EmbedSum {
                table,
                rows: rows.to_vec(),
                scale,
            },
        )
    }

    /// Attention aggregation `Σ w_i e_{rows[i]}` with differentiable
    /// weights (`weights` must be a `rows.len() x 1` node).
    ///
    /// # Panics
    /// Panics if the weight vector length disagrees with `rows`.
    pub fn weighted_embed_sum(&mut self, table: ParamId, rows: &[u32], weights: Var) -> Var {
        let w = &self.nodes[weights.0].value;
        assert_eq!(
            w.shape(),
            (rows.len(), 1),
            "weights must be a rows.len() x 1 column vector"
        );
        let t = self.store.value(table);
        let dim = t.cols();
        let mut acc = vec![0.0f32; dim];
        for (i, &r) in rows.iter().enumerate() {
            linalg::axpy(w.get(i, 0), t.row(r as usize), &mut acc);
        }
        self.push(
            Matrix::col_vector(&acc),
            Op::WeightedEmbedSum {
                table,
                rows: rows.to_vec(),
                weights,
            },
        )
    }

    // ------------------------------------------------------------------
    // Parametric transforms
    // ------------------------------------------------------------------

    /// `W x + b` where `W` is `out x in`, `b` is `out x 1`.
    pub fn affine(&mut self, w: ParamId, b: ParamId, x: Var) -> Var {
        let wv = self.store.value(w);
        let bv = self.store.value(b);
        let xv = &self.nodes[x.0].value;
        assert_eq!(xv.cols(), 1, "affine input must be a column vector");
        assert_eq!(wv.cols(), xv.rows(), "affine: W cols != x rows");
        assert_eq!(bv.shape(), (wv.rows(), 1), "affine: bias shape mismatch");
        let mut y = linalg::matvec(wv, xv.as_slice());
        linalg::axpy(1.0, bv.as_slice(), &mut y);
        self.push(Matrix::col_vector(&y), Op::Affine { w, b, x, c: None })
    }

    /// `W [a ‖ c] + b` without building `[a ‖ c]`: computed as
    /// `(W[:, ..l] a + b) + W[:, l..] c` with `l = a.rows()`, in that
    /// float order. Each half is one strided [`linalg::dot_rows_into`]
    /// call over `W`'s column window, so `W[:, l..] c` depends on `c`
    /// alone and a frozen engine can project it once per item (Eq. 14).
    /// The backward pass is the concat + affine one.
    pub fn affine_split(&mut self, w: ParamId, b: ParamId, a: Var, c: Var) -> Var {
        let wv = self.store.value(w);
        let bv = self.store.value(b);
        let av = &self.nodes[a.0].value;
        let cv = &self.nodes[c.0].value;
        assert!(
            av.cols() == 1 && cv.cols() == 1,
            "affine_split inputs must be column vectors"
        );
        assert_eq!(
            wv.cols(),
            av.rows() + cv.rows(),
            "affine_split: W cols != a rows + c rows"
        );
        assert_eq!(
            bv.shape(),
            (wv.rows(), 1),
            "affine_split: bias shape mismatch"
        );
        let (h, k) = wv.shape();
        let mut y = vec![0.0f32; h];
        linalg::dot_rows_into(av.as_slice(), wv.as_slice(), k, &mut y);
        linalg::axpy(1.0, bv.as_slice(), &mut y);
        let mut yc = vec![0.0f32; h];
        let w_c = wv.as_slice().get(av.rows()..).unwrap_or_default();
        linalg::dot_rows_into(cv.as_slice(), w_c, k, &mut yc);
        linalg::axpy(1.0, &yc, &mut y);
        self.push(
            Matrix::col_vector(&y),
            Op::Affine {
                w,
                b,
                x: a,
                c: Some(c),
            },
        )
    }

    /// `W x` without bias.
    pub fn linear(&mut self, w: ParamId, x: Var) -> Var {
        let wv = self.store.value(w);
        let xv = &self.nodes[x.0].value;
        assert_eq!(xv.cols(), 1, "linear input must be a column vector");
        assert_eq!(wv.cols(), xv.rows(), "linear: W cols != x rows");
        let y = linalg::matvec(wv, xv.as_slice());
        self.push(Matrix::col_vector(&y), Op::Linear { w, x })
    }

    // ------------------------------------------------------------------
    // Element-wise arithmetic
    // ------------------------------------------------------------------

    /// `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = linalg::add(&self.nodes[a.0].value, &self.nodes[b.0].value);
        self.push(v, Op::Add { a, b })
    }

    /// `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = linalg::sub(&self.nodes[a.0].value, &self.nodes[b.0].value);
        self.push(v, Op::Sub { a, b })
    }

    /// `a ⊙ b` element-wise.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = linalg::hadamard(&self.nodes[a.0].value, &self.nodes[b.0].value);
        self.push(v, Op::Mul { a, b })
    }

    /// `c · a`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.nodes[a.0].value.map(|x| c * x);
        self.push(v, Op::Scale { a, c })
    }

    /// `s · v` with a scalar node `s`.
    pub fn scalar_mul(&mut self, s: Var, v: Var) -> Var {
        let sv = self.scalar(s);
        let out = self.nodes[v.0].value.map(|x| sv * x);
        self.push(out, Op::ScalarMul { s, v })
    }

    /// `aᵀ b` producing a scalar node.
    pub fn dot(&mut self, a: Var, b: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(av.shape(), bv.shape(), "dot shape mismatch");
        let v = linalg::dot(av.as_slice(), bv.as_slice());
        self.push(Matrix::full(1, 1, v), Op::Dot { a, b })
    }

    /// Vertical concatenation `[a ‖ b ‖ …]` of column vectors.
    ///
    /// # Panics
    /// Panics when `parts` is empty or any part is not a column vector.
    pub fn concat(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat of zero parts");
        let mut data = Vec::new();
        for &p in parts {
            let v = &self.nodes[p.0].value;
            assert_eq!(v.cols(), 1, "concat parts must be column vectors");
            data.extend_from_slice(v.as_slice());
        }
        self.push(
            Matrix::col_vector(&data),
            Op::Concat {
                parts: parts.to_vec(),
            },
        )
    }

    /// Element-wise activation.
    pub fn activation(&mut self, a: Var, act: Act) -> Var {
        let v = self.nodes[a.0].value.map(|x| act.apply(x));
        self.push(v, Op::Activation { a, act })
    }

    /// Softmax over a column vector.
    pub fn softmax(&mut self, a: Var) -> Var {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.cols(), 1, "softmax input must be a column vector");
        let p = numeric::softmax(av.as_slice());
        self.push(Matrix::col_vector(&p), Op::Softmax { a })
    }

    /// Stacks scalar nodes into a column vector.
    ///
    /// # Panics
    /// Panics when `parts` is empty or any node is not scalar.
    pub fn stack_scalars(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "stack of zero scalars");
        let data: Vec<f32> = parts.iter().map(|&p| self.scalar(p)).collect();
        self.push(
            Matrix::col_vector(&data),
            Op::StackScalars {
                parts: parts.to_vec(),
            },
        )
    }

    /// Cosine similarity producing a scalar node; returns exactly 0 (with
    /// zero gradients) when either operand has zero norm.
    pub fn cosine(&mut self, a: Var, b: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(av.shape(), bv.shape(), "cosine shape mismatch");
        let v = numeric::cosine_similarity(av.as_slice(), bv.as_slice());
        self.push(Matrix::full(1, 1, v), Op::Cosine { a, b })
    }

    /// Selects element `index` of a column vector as a scalar node
    /// (differentiable indexing; used to read one attention weight out of
    /// a softmax vector).
    ///
    /// # Panics
    /// Panics when `a` is not a column vector or `index` is out of range.
    pub fn select(&mut self, a: Var, index: usize) -> Var {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.cols(), 1, "select input must be a column vector");
        assert!(index < av.rows(), "select index out of range");
        let v = av.get(index, 0);
        self.push(Matrix::full(1, 1, v), Op::Select { a, index })
    }

    /// Sum of all elements, producing a scalar node.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sum();
        self.push(Matrix::full(1, 1, v), Op::Sum { a })
    }

    /// Element-wise `ln σ(x)` (numerically stable).
    pub fn log_sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(numeric::log_sigmoid);
        self.push(v, Op::LogSigmoid { a })
    }

    /// Squared L2 norm `‖a‖²` producing a scalar node.
    pub fn squared_norm(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0]
            .value
            .as_slice()
            .iter()
            .map(|x| x * x)
            .sum::<f32>();
        self.push(Matrix::full(1, 1, v), Op::SquaredNorm { a })
    }

    /// The pairwise BPR loss of Eq. 15 for one `(positive, negative)` score
    /// pair: `-ln σ(pos - neg)`.
    pub fn bpr_loss(&mut self, pos: Var, neg: Var) -> Var {
        let diff = self.sub(pos, neg);
        let ls = self.log_sigmoid(diff);
        self.scale(ls, -1.0)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Reverse sweep from `loss` (which must be scalar), accumulating
    /// parameter gradients into `grads`.
    ///
    /// May be called once per tape; building further nodes afterwards and
    /// calling it again is allowed but each call re-seeds only from `loss`.
    ///
    /// The sweep allocates once, not per node: every adjoint lives in one
    /// flat buffer at an offset fixed by the node value lengths, the first
    /// contribution to a node copies and later ones add. Dense gradients
    /// go straight into their slots of `grads` (`W` through the rank-1
    /// [`linalg::add_outer`]), row gradients into its row arenas.
    pub fn backward(&self, loss: Var, grads: &mut GradStore) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar loss"
        );
        // Node `i`'s adjoint is `buf[off[i]..off[i + 1]]`.
        let mut off = Vec::with_capacity(loss.0 + 2);
        off.push(0usize);
        for n in &self.nodes[..=loss.0] {
            off.push(off[off.len() - 1] + n.value.len());
        }
        let mut buf = vec![0.0f32; off[loss.0 + 1]];
        let mut seen = vec![false; loss.0 + 1];
        buf[off[loss.0]] = 1.0;
        seen[loss.0] = true;
        // Wᵀg, computed whole before it joins an input's adjoint.
        let mut wtg: Vec<f32> = Vec::new();

        for i in (0..=loss.0).rev() {
            if !seen[i] {
                continue;
            }
            let node = &self.nodes[i];
            // Inputs precede their node on the tape, so their adjoints
            // all lie below this node's offset.
            let (below, rest) = buf.split_at_mut(off[i]);
            let g = &rest[..node.value.len()];
            let mut adj = Adjoints {
                off: &off,
                buf: below,
                seen: &mut seen[..i],
            };
            match &node.op {
                Op::Constant => {}
                Op::EmbedRow { table, row } => {
                    linalg::axpy(1.0, g, grads.row_mut(*table, *row));
                }
                Op::EmbedSum { table, rows, scale } => {
                    if *scale != 0.0 {
                        for &r in rows {
                            linalg::axpy(*scale, g, grads.row_mut(*table, r));
                        }
                    }
                }
                Op::WeightedEmbedSum {
                    table,
                    rows,
                    weights,
                } => {
                    let t = self.store.value(*table);
                    let wv = self.nodes[weights.0].value.as_slice();
                    for (&r, &w) in rows.iter().zip(wv) {
                        linalg::axpy(w, g, grads.row_mut(*table, r));
                    }
                    adj.add(*weights, |k| linalg::dot(g, t.row(rows[k] as usize)));
                }
                Op::Affine { w, b, x, c } => {
                    // gW += g [x ‖ c]ᵀ ; gb += g ; g[x ‖ c] += Wᵀ g, split
                    // at x's length
                    let wv = self.store.value(*w);
                    let xv = self.nodes[x.0].value.as_slice();
                    wtg.resize(wv.cols(), 0.0);
                    linalg::matvec_t_into(wv, g, &mut wtg);
                    linalg::axpy(1.0, g, grads.dense_mut(*b).as_mut_slice());
                    let gw = grads.dense_mut(*w).as_mut_slice();
                    linalg::add_outer(gw, wv.cols(), g, xv);
                    let (ga, gc) = wtg.split_at(xv.len());
                    if let Some(c) = c {
                        let cv = self.nodes[c.0].value.as_slice();
                        linalg::add_outer(&mut gw[xv.len()..], wv.cols(), g, cv);
                        adj.add_slice(*x, ga);
                        adj.add_slice(*c, gc);
                    } else {
                        adj.add_slice(*x, ga);
                    }
                }
                Op::Linear { w, x } => {
                    let wv = self.store.value(*w);
                    let xv = self.nodes[x.0].value.as_slice();
                    linalg::add_outer(grads.dense_mut(*w).as_mut_slice(), wv.cols(), g, xv);
                    wtg.resize(wv.cols(), 0.0);
                    linalg::matvec_t_into(wv, g, &mut wtg);
                    adj.add_slice(*x, &wtg);
                }
                Op::Add { a, b } => {
                    adj.add_slice(*a, g);
                    adj.add_slice(*b, g);
                }
                Op::Sub { a, b } => {
                    adj.add_slice(*a, g);
                    adj.add(*b, |k| -g[k]);
                }
                Op::Mul { a, b } => {
                    let av = self.nodes[a.0].value.as_slice();
                    let bv = self.nodes[b.0].value.as_slice();
                    adj.add(*a, |k| g[k] * bv[k]);
                    adj.add(*b, |k| g[k] * av[k]);
                }
                Op::Scale { a, c } => {
                    let c = *c;
                    adj.add(*a, |k| c * g[k]);
                }
                Op::ScalarMul { s, v } => {
                    let sv = self.nodes[s.0].value.get(0, 0);
                    let gs = linalg::dot(g, self.nodes[v.0].value.as_slice());
                    adj.add(*s, |_| gs);
                    adj.add(*v, |k| sv * g[k]);
                }
                Op::Dot { a, b } => {
                    let gs = g[0];
                    let av = self.nodes[a.0].value.as_slice();
                    let bv = self.nodes[b.0].value.as_slice();
                    adj.add(*a, |k| gs * bv[k]);
                    adj.add(*b, |k| gs * av[k]);
                }
                Op::Concat { parts } => {
                    let mut offset = 0usize;
                    for &p in parts {
                        let n = self.nodes[p.0].value.rows();
                        adj.add_slice(p, &g[offset..offset + n]);
                        offset += n;
                    }
                }
                Op::Activation { a, act } => {
                    let act = *act;
                    let xin = self.nodes[a.0].value.as_slice();
                    let yout = node.value.as_slice();
                    adj.add(*a, |k| g[k] * act.grad(xin[k], yout[k]));
                }
                Op::Softmax { a } => {
                    let p = node.value.as_slice();
                    let inner = linalg::dot(p, g);
                    adj.add(*a, |k| p[k] * (g[k] - inner));
                }
                Op::StackScalars { parts } => {
                    for (&p, &gk) in parts.iter().zip(g) {
                        adj.add(p, |_| gk);
                    }
                }
                Op::Cosine { a, b } => {
                    let gs = g[0];
                    let av = self.nodes[a.0].value.as_slice();
                    let bv = self.nodes[b.0].value.as_slice();
                    // `cosine_grad_wrt_a(a, b)` and `(b, a)` share their
                    // norms and dot product; each expression keeps its
                    // order, and products commute.
                    match CosineParts::of(av, bv) {
                        Some(cp) => {
                            adj.add(*a, |k| cp.grad_a(av[k], bv[k]) * gs);
                            adj.add(*b, |k| cp.grad_b(av[k], bv[k]) * gs);
                        }
                        None => {
                            adj.add(*a, |_| 0.0 * gs);
                            adj.add(*b, |_| 0.0 * gs);
                        }
                    }
                }
                Op::Select { a, index } => {
                    let gs = g[0];
                    let index = *index;
                    adj.add(*a, |k| if k == index { gs } else { 0.0 });
                }
                Op::Sum { a } => {
                    let gs = g[0];
                    adj.add(*a, |_| gs);
                }
                Op::LogSigmoid { a } => {
                    // d/dx ln σ(x) = 1 - σ(x) = σ(-x)
                    let xin = self.nodes[a.0].value.as_slice();
                    adj.add(*a, |k| g[k] * numeric::sigmoid(-xin[k]));
                }
                Op::SquaredNorm { a } => {
                    let c = 2.0 * g[0];
                    let av = self.nodes[a.0].value.as_slice();
                    adj.add(*a, |k| c * av[k]);
                }
            }
        }
        grads.sort_rows();
    }
}

/// The adjoints below the node a backward step is working on.
struct Adjoints<'a> {
    off: &'a [usize],
    buf: &'a mut [f32],
    seen: &'a mut [bool],
}

impl Adjoints<'_> {
    /// Adds `f(k)` to element `k` of `v`'s adjoint; the first contribution
    /// to a node copies instead.
    #[inline]
    fn add(&mut self, v: Var, f: impl Fn(usize) -> f32) {
        let dst = &mut self.buf[self.off[v.0]..self.off[v.0 + 1]];
        if std::mem::replace(&mut self.seen[v.0], true) {
            for (k, d) in dst.iter_mut().enumerate() {
                *d += f(k);
            }
        } else {
            for (k, d) in dst.iter_mut().enumerate() {
                *d = f(k);
            }
        }
    }

    fn add_slice(&mut self, v: Var, g: &[f32]) {
        self.add(v, |k| g[k]);
    }
}

/// The shared terms of `numeric::cosine_grad_wrt_a(a, b)` and
/// `cosine_grad_wrt_a(b, a)`.
struct CosineParts {
    na2: f32,
    nb2: f32,
    nab: f32,
    cos: f32,
}

impl CosineParts {
    /// `None` when either norm vanishes (both gradients are then zero).
    fn of(a: &[f32], b: &[f32]) -> Option<Self> {
        let na2: f32 = a.iter().map(|v| v * v).sum();
        let nb2: f32 = b.iter().map(|v| v * v).sum();
        let nab = na2.sqrt() * nb2.sqrt();
        if nab <= f32::EPSILON {
            return None;
        }
        let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
        Some(CosineParts {
            na2,
            nb2,
            nab,
            cos: dot / nab,
        })
    }

    /// Element of `∂cos/∂a` at `(a_k, b_k)`.
    #[inline]
    fn grad_a(&self, x: f32, y: f32) -> f32 {
        y / self.nab - self.cos * x / self.na2
    }

    /// Element of `∂cos/∂b` at `(a_k, b_k)`.
    #[inline]
    fn grad_b(&self, x: f32, y: f32) -> f32 {
        x / self.nab - self.cos * y / self.nb2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;
    use scenerec_tensor::Initializer;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-4
    }

    #[test]
    fn apply_all_matches_apply_bit_for_bit() {
        let xs = [-3.5f32, -1.0, -0.0, 0.0, 1e-30, 0.5, 2.0, 40.0, f32::NAN];
        for act in [
            Act::Identity,
            Act::Sigmoid,
            Act::Relu,
            Act::Tanh,
            Act::LeakyRelu(0.125),
        ] {
            let mut all = xs;
            act.apply_all(&mut all);
            for (&x, y) in xs.iter().zip(all) {
                assert_eq!(act.apply(x).to_bits(), y.to_bits(), "{act:?} at {x}");
            }
        }
    }

    #[test]
    fn constant_and_scalar_access() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let c = g.constant_scalar(3.5);
        assert_eq!(g.scalar(c), 3.5);
        let v = g.constant_vec(&[1.0, 2.0]);
        assert_eq!(g.value(v).shape(), (2, 1));
    }

    #[test]
    fn embed_ops_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let e = store.add_embedding("e", 4, 2, Initializer::Zeros, &mut rng);
        store.param_mut(e).value_mut().set_row(0, &[1.0, 2.0]);
        store.param_mut(e).value_mut().set_row(1, &[3.0, 4.0]);
        store.param_mut(e).value_mut().set_row(2, &[5.0, 6.0]);

        let mut g = Graph::new(&store);
        let r = g.embed_row(e, 1);
        assert_eq!(g.value(r).as_slice(), &[3.0, 4.0]);
        let s = g.embed_sum(e, &[0, 2]);
        assert_eq!(g.value(s).as_slice(), &[6.0, 8.0]);
        let m = g.embed_mean(e, &[0, 2]);
        assert_eq!(g.value(m).as_slice(), &[3.0, 4.0]);
        let empty = g.embed_sum(e, &[]);
        assert_eq!(g.value(empty).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn weighted_embed_sum_value_and_grads() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let e = store.add_embedding("e", 3, 2, Initializer::Zeros, &mut rng);
        store.param_mut(e).value_mut().set_row(0, &[1.0, 0.0]);
        store.param_mut(e).value_mut().set_row(1, &[0.0, 1.0]);

        let mut g = Graph::new(&store);
        let w = g.constant_vec(&[0.25, 0.75]);
        let out = g.weighted_embed_sum(e, &[0, 1], w);
        assert_eq!(g.value(out).as_slice(), &[0.25, 0.75]);

        let target = g.constant_vec(&[1.0, 1.0]);
        let loss = g.dot(out, target);
        let mut grads = GradStore::new(&store);
        g.backward(loss, &mut grads);
        let rows = grads.sparse(e);
        // d loss / d row_0 = w_0 * [1,1]
        assert_eq!(rows.get(0).unwrap(), vec![0.25, 0.25]);
        assert_eq!(rows.get(1).unwrap(), vec![0.75, 0.75]);
    }

    #[test]
    fn affine_forward_and_backward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let w = store.add_dense("w", 2, 2, Initializer::Zeros, &mut rng);
        let b = store.add_dense("b", 2, 1, Initializer::Zeros, &mut rng);
        store.param_mut(w).value_mut().set_row(0, &[1.0, 2.0]);
        store.param_mut(w).value_mut().set_row(1, &[3.0, 4.0]);
        store.param_mut(b).value_mut().set_row(0, &[0.5]);
        store.param_mut(b).value_mut().set_row(1, &[-0.5]);

        let mut g = Graph::new(&store);
        let x = g.constant_vec(&[1.0, 1.0]);
        let y = g.affine(w, b, x);
        assert_eq!(g.value(y).as_slice(), &[3.5, 6.5]);

        let loss = g.sum(y);
        let mut grads = GradStore::new(&store);
        g.backward(loss, &mut grads);
        // gW = 1 * xᵀ for each output row.
        assert_eq!(grads.dense(w).unwrap().as_slice(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(grads.dense(b).unwrap().as_slice(), &[1.0, 1.0]);
    }

    /// On exactly representable values the split form equals the affine
    /// map of the concatenation, forward and backward.
    #[test]
    fn affine_split_matches_affine_of_concat() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let w = store.add_dense("w", 2, 5, Initializer::Zeros, &mut rng);
        let b = store.add_dense("b", 2, 1, Initializer::Zeros, &mut rng);
        let e = store.add_embedding("e", 2, 3, Initializer::Zeros, &mut rng);
        let f = store.add_embedding("f", 1, 2, Initializer::Zeros, &mut rng);
        store
            .param_mut(w)
            .value_mut()
            .set_row(0, &[1.0, -2.0, 0.5, 3.0, -1.0]);
        store
            .param_mut(w)
            .value_mut()
            .set_row(1, &[0.25, 4.0, -1.5, 2.0, 1.0]);
        store.param_mut(b).value_mut().set_row(1, &[-0.5]);
        store.param_mut(e).value_mut().set_row(1, &[2.0, 1.0, -3.0]);
        store.param_mut(f).value_mut().set_row(0, &[0.5, -4.0]);

        let run = |split: bool| {
            let mut g = Graph::new(&store);
            let a = g.embed_row(e, 1);
            let c = g.embed_row(f, 0);
            let y = if split {
                g.affine_split(w, b, a, c)
            } else {
                let cat = g.concat(&[a, c]);
                g.affine(w, b, cat)
            };
            let value = g.value(y).as_slice().to_vec();
            let sq = g.squared_norm(y);
            let mut grads = GradStore::new(&store);
            g.backward(sq, &mut grads);
            (
                value,
                grads.dense(w).unwrap().as_slice().to_vec(),
                grads.dense(b).unwrap().as_slice().to_vec(),
                grads.sparse(e).get(1).unwrap().to_vec(),
                grads.sparse(f).get(0).unwrap().to_vec(),
            )
        };
        let split = run(true);
        assert_eq!(split.0, vec![4.0, 5.5]);
        assert_eq!(split, run(false));
    }

    #[test]
    fn bpr_loss_value() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let pos = g.constant_scalar(2.0);
        let neg = g.constant_scalar(0.0);
        let loss = g.bpr_loss(pos, neg);
        let expected = -scenerec_tensor::numeric::log_sigmoid(2.0);
        assert!(close(g.scalar(loss), expected));
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.constant_vec(&[0.1, 0.7, -0.3]);
        let p = g.softmax(x);
        // loss = p[0]: pick out first component via dot with basis vector.
        let sel = g.constant_vec(&[1.0, 0.0, 0.0]);
        let loss = g.dot(p, sel);
        let mut grads = GradStore::new(&store);
        g.backward(loss, &mut grads);
        // Gradient w.r.t. softmax inputs sums to zero (shift invariance);
        // verified indirectly through gradcheck tests — here we just ensure
        // backward runs without parameters involved.
        assert!(g.scalar(loss) > 0.0);
    }

    #[test]
    fn concat_splits_gradient() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let e = store.add_embedding("e", 2, 2, Initializer::Constant(1.0), &mut rng);
        let mut g = Graph::new(&store);
        let a = g.embed_row(e, 0);
        let b = g.embed_row(e, 1);
        let cat = g.concat(&[a, b]);
        assert_eq!(g.value(cat).shape(), (4, 1));
        let weights = g.constant_vec(&[1.0, 2.0, 3.0, 4.0]);
        let loss = g.dot(cat, weights);
        let mut grads = GradStore::new(&store);
        g.backward(loss, &mut grads);
        assert_eq!(grads.sparse(e).get(0).unwrap(), vec![1.0, 2.0]);
        assert_eq!(grads.sparse(e).get(1).unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // loss = sum(x + x) => d loss / d row = 2.
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let e = store.add_embedding("e", 1, 3, Initializer::Constant(1.0), &mut rng);
        let mut g = Graph::new(&store);
        let x = g.embed_row(e, 0);
        let y = g.add(x, x);
        let loss = g.sum(y);
        let mut grads = GradStore::new(&store);
        g.backward(loss, &mut grads);
        assert_eq!(grads.sparse(e).get(0).unwrap(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "backward requires a scalar loss")]
    fn backward_rejects_vector_loss() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let v = g.constant_vec(&[1.0, 2.0]);
        let mut grads = GradStore::new(&store);
        g.backward(v, &mut grads);
    }

    #[test]
    fn select_routes_gradient_to_one_element() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let e = store.add_embedding("e", 1, 3, Initializer::Zeros, &mut rng);
        store.param_mut(e).value_mut().set_row(0, &[1.0, 2.0, 3.0]);
        let mut g = Graph::new(&store);
        let v = g.embed_row(e, 0);
        let s = g.select(v, 1);
        assert_eq!(g.scalar(s), 2.0);
        let doubled = g.scale(s, 2.0);
        let mut grads = GradStore::new(&store);
        g.backward(doubled, &mut grads);
        assert_eq!(grads.sparse(e).get(0).unwrap(), vec![0.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "select index out of range")]
    fn select_rejects_out_of_range() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let v = g.constant_vec(&[1.0, 2.0]);
        let _ = g.select(v, 5);
    }

    #[test]
    fn scalar_mul_routes_gradients() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let e = store.add_embedding("e", 2, 2, Initializer::Zeros, &mut rng);
        store.param_mut(e).value_mut().set_row(0, &[2.0, 3.0]);
        store.param_mut(e).value_mut().set_row(1, &[4.0, 5.0]);
        let mut g = Graph::new(&store);
        let v = g.embed_row(e, 0);
        let s_vec = g.embed_row(e, 1);
        let ones = g.constant_vec(&[1.0, 0.0]);
        let s = g.dot(s_vec, ones); // s = 4.0
        let out = g.scalar_mul(s, v);
        assert_eq!(g.value(out).as_slice(), &[8.0, 12.0]);
        let loss = g.sum(out);
        let mut grads = GradStore::new(&store);
        g.backward(loss, &mut grads);
        // d/d row0 = s * 1 = 4; d/d s = sum(v) = 5 routed through dot.
        assert_eq!(grads.sparse(e).get(0).unwrap(), vec![4.0, 4.0]);
        assert_eq!(grads.sparse(e).get(1).unwrap(), vec![5.0, 0.0]);
    }
}
