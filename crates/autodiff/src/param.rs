//! Parameter and gradient storage.
//!
//! A [`ParamStore`] owns every trainable tensor of a model. Parameters come
//! in two kinds:
//!
//! * **Dense** — weight matrices and bias vectors; every element gets a
//!   gradient on every step.
//! * **Embedding** — entity tables (users, items, categories, scenes) whose
//!   rows are embeddings; a step only touches the rows gathered during the
//!   forward pass, so gradients are stored row-sparse ([`SparseRows`]).

use rand::Rng;
use scenerec_tensor::{Initializer, Matrix};
use serde::{Deserialize, Serialize};

/// Opaque handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index of the parameter within its store (stable for the store's
    /// lifetime; useful for diagnostics).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Whether a parameter receives dense or sparse (row-wise) gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamKind {
    /// Full-matrix gradients.
    Dense,
    /// Row-sparse gradients (embedding tables).
    Embedding,
}

/// A single named parameter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    name: String,
    kind: ParamKind,
    value: Matrix,
}

impl Param {
    /// Human-readable name (unique within the store).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Gradient kind.
    pub fn kind(&self) -> ParamKind {
        self.kind
    }

    /// Current value.
    pub fn value(&self) -> &Matrix {
        &self.value
    }

    /// Mutable value (used by optimizers).
    pub fn value_mut(&mut self) -> &mut Matrix {
        &mut self.value
    }
}

/// Owns all trainable parameters of a model.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a dense parameter initialized with `init`.
    ///
    /// # Panics
    /// Panics if `name` is already registered — parameter names double as
    /// checkpoint keys and must be unique.
    pub fn add_dense(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        init: Initializer,
        rng: &mut impl Rng,
    ) -> ParamId {
        self.add(name, ParamKind::Dense, init.init(rows, cols, rng))
    }

    /// Registers an embedding table of `entities x dim` rows.
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn add_embedding(
        &mut self,
        name: &str,
        entities: usize,
        dim: usize,
        init: Initializer,
        rng: &mut impl Rng,
    ) -> ParamId {
        self.add(name, ParamKind::Embedding, init.init(entities, dim, rng))
    }

    /// Registers a parameter with an explicit value (checkpoint restore,
    /// tests).
    pub fn add(&mut self, name: &str, kind: ParamKind, value: Matrix) -> ParamId {
        assert!(
            self.lookup(name).is_none(),
            "duplicate parameter name `{name}`"
        );
        let id = ParamId(self.params.len());
        self.params.push(Param {
            name: name.to_owned(),
            kind,
            value,
        });
        id
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Parameter metadata and value by id.
    pub fn param(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Mutable access (optimizers).
    pub fn param_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Finds a parameter id by name.
    pub fn lookup(&self, name: &str) -> Option<ParamId> {
        self.params.iter().position(|p| p.name == name).map(ParamId)
    }

    /// Iterates over `(id, param)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Sum of squared weights over **dense** parameters plus the given
    /// embedding rows — the `λ‖Θ‖²` term of Eq. 15 restricted, as is
    /// standard for BPR, to the parameters touched by the mini-batch.
    pub fn l2_of(&self, embedding_rows: &[(ParamId, u32)]) -> f32 {
        let dense: f32 = self
            .params
            .iter()
            .filter(|p| p.kind == ParamKind::Dense)
            .map(|p| p.value.as_slice().iter().map(|v| v * v).sum::<f32>())
            .sum();
        let rows: f32 = embedding_rows
            .iter()
            .map(|&(id, row)| {
                self.value(id)
                    .row(row as usize)
                    .iter()
                    .map(|v| v * v)
                    .sum::<f32>()
            })
            .sum();
        dense + rows
    }
}

/// Row-index sentinel of [`SparseRows`]: the row holds no gradient.
const ABSENT: u32 = u32::MAX;

/// Gradient of one embedding table: the touched rows only.
///
/// Rows live in one arena, `dim` floats per slot, found through a row
/// index sized to the table, so adding into a row is one index lookup and
/// a reset costs O(rows touched). The touched rows are kept in ascending
/// order: a reduction over rows (the global gradient norm) visits them in
/// a fixed order, so same-seed runs stay bit-identical. Nothing here
/// iterates a hash map.
///
/// A store that [`GradStore::reduce`] writes into keeps each row at its
/// own index (`slot == row`, an arena the size of the table), which lets
/// the reduce hand disjoint row ranges of one table to different workers.
#[derive(Clone, Default)]
pub struct SparseRows {
    dim: usize,
    table_rows: usize,
    /// Arena slot of each table row, `ABSENT` when untouched; allocated
    /// with the first row.
    slot: Vec<u32>,
    /// Touched rows, ascending.
    rows: Vec<u32>,
    /// Row arena: slot `s` holds `vals[s * dim..(s + 1) * dim]`.
    vals: Vec<f32>,
    /// Every row lives at its own index.
    direct: bool,
}

impl SparseRows {
    fn new(table_rows: usize, dim: usize) -> Self {
        SparseRows {
            dim,
            table_rows,
            ..SparseRows::default()
        }
    }

    /// Number of touched rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no row holds a gradient.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Gradient of `row`, if it was touched.
    pub fn get(&self, row: u32) -> Option<&[f32]> {
        match self.slot.get(row as usize) {
            Some(&s) if s != ABSENT => Some(self.at(s)),
            _ => None,
        }
    }

    /// Touched row ids, ascending.
    pub fn keys(&self) -> std::slice::Iter<'_, u32> {
        self.rows.iter()
    }

    /// `(row, gradient)` pairs, rows ascending.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            rows: self.rows.iter(),
            table: self,
        }
    }

    fn at(&self, slot: u32) -> &[f32] {
        let at = slot as usize * self.dim;
        &self.vals[at..at + self.dim]
    }

    /// The row's gradient, zero-filled when the row is new. A new row is
    /// appended to `rows` out of order; [`SparseRows::sort`] restores the
    /// order.
    fn entry(&mut self, row: u32) -> &mut [f32] {
        if self.slot.is_empty() {
            self.slot = vec![ABSENT; self.table_rows];
        }
        let dim = self.dim;
        let mut s = self.slot[row as usize];
        if s == ABSENT {
            s = if self.direct {
                row
            } else {
                self.rows.len() as u32
            };
            self.slot[row as usize] = s;
            self.rows.push(row);
            let at = s as usize * dim;
            if self.direct {
                self.vals[at..at + dim].fill(0.0);
            } else {
                self.vals.resize(at + dim, 0.0);
            }
        }
        let at = s as usize * dim;
        &mut self.vals[at..at + dim]
    }

    fn sort(&mut self) {
        self.rows.sort_unstable();
    }

    /// Drops every row in O(rows touched), keeping the allocations.
    fn reset(&mut self) {
        for &r in &self.rows {
            self.slot[r as usize] = ABSENT;
        }
        self.rows.clear();
        if !self.direct {
            self.vals.clear();
        }
    }

    /// Moves every row to its own index: the layout a reduce writes into.
    fn make_direct(&mut self) {
        if self.direct {
            return;
        }
        let mut vals = vec![0.0f32; self.table_rows * self.dim];
        if self.slot.is_empty() {
            self.slot = vec![ABSENT; self.table_rows];
        }
        for &r in &self.rows {
            let at = r as usize * self.dim;
            vals[at..at + self.dim].copy_from_slice(self.at(self.slot[r as usize]));
            self.slot[r as usize] = r;
        }
        self.vals = vals;
        self.direct = true;
    }

    /// Splits a direct table into `parts` contiguous row ranges of about
    /// equal length, lowest rows first.
    fn ranges(&mut self, parts: usize) -> Vec<RowRange<'_>> {
        let (dim, n) = (self.dim, self.table_rows);
        let mut slot = &mut self.slot[..];
        let mut vals = &mut self.vals[..];
        let mut out = Vec::with_capacity(parts);
        let mut lo = 0;
        for p in 1..=parts {
            let hi = n * p / parts;
            let (s, s_rest) = std::mem::take(&mut slot).split_at_mut(hi - lo);
            let (v, v_rest) = std::mem::take(&mut vals).split_at_mut((hi - lo) * dim);
            out.push(RowRange {
                lo: lo as u32,
                dim,
                slot: s,
                vals: v,
            });
            (slot, vals, lo) = (s_rest, v_rest, hi);
        }
        out
    }

    /// Rebuilds the ascending row list of a direct table from its index.
    fn collect_rows(&mut self) {
        self.rows.clear();
        let present = self.slot.iter().enumerate().filter(|(_, &s)| s != ABSENT);
        self.rows.extend(present.map(|(r, _)| r as u32));
    }
}

/// Iterator over a [`SparseRows`]' `(row, gradient)` pairs, rows
/// ascending.
pub struct RowIter<'a> {
    rows: std::slice::Iter<'a, u32>,
    table: &'a SparseRows,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = (u32, &'a [f32]);

    fn next(&mut self) -> Option<Self::Item> {
        let &r = self.rows.next()?;
        Some((r, self.table.at(self.table.slot[r as usize])))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl<'a> IntoIterator for &'a SparseRows {
    type Item = (u32, &'a [f32]);
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl PartialEq for SparseRows {
    /// Same rows holding equal values, whatever the layout.
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for SparseRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One share's rows `lo..lo + slot.len()` of a direct table.
struct RowRange<'a> {
    lo: u32,
    dim: usize,
    slot: &'a mut [u32],
    vals: &'a mut [f32],
}

impl RowRange<'_> {
    /// Adds `src`'s rows that fall in this range: a new row starts at
    /// zero, as [`GradStore::add_row`] starts one.
    fn absorb(&mut self, src: &SparseRows) {
        let hi = self.lo as usize + self.slot.len();
        let a = src.rows.partition_point(|&r| r < self.lo);
        let b = src.rows.partition_point(|&r| (r as usize) < hi);
        for &r in &src.rows[a..b] {
            let i = (r - self.lo) as usize;
            let dst = &mut self.vals[i * self.dim..(i + 1) * self.dim];
            if self.slot[i] == ABSENT {
                self.slot[i] = r;
                dst.fill(0.0);
            }
            scenerec_tensor::linalg::axpy(1.0, src.at(src.slot[r as usize]), dst);
        }
    }
}

/// Gradient of one dense parameter.
#[derive(Debug, Clone, Default)]
struct DenseSlot {
    /// Allocated on first touch and kept across resets.
    buf: Option<Matrix>,
    /// The store holds a gradient here (`GradStore::dense` is `Some`).
    live: bool,
}

impl DenseSlot {
    fn value(&self) -> Option<&Matrix> {
        self.buf.as_ref().filter(|_| self.live)
    }

    /// The slot's buffer, zeroed first when it held no gradient.
    fn touch(&mut self, (rows, cols): (usize, usize)) -> &mut Matrix {
        let live = std::mem::replace(&mut self.live, true);
        match &mut self.buf {
            Some(buf) => {
                if !live {
                    buf.fill_zero();
                }
                buf
            }
            slot @ None => slot.insert(Matrix::zeros(rows, cols)),
        }
    }

    /// The reduce's per-slot routine: adds `grad` to a live slot and
    /// copies it into an idle one. A live slot's own fields are only read:
    /// neighbouring slots may belong to another worker.
    fn absorb(&mut self, grad: &Matrix) {
        match (&mut self.buf, self.live) {
            (Some(buf), true) => scenerec_tensor::linalg::add_scaled(buf, 1.0, grad),
            (Some(buf), false) => buf.as_mut_slice().copy_from_slice(grad.as_slice()),
            (slot @ None, _) => *slot = Some(grad.clone()),
        }
        if !self.live {
            self.live = true;
        }
    }
}

/// Gradient accumulator mirroring a [`ParamStore`].
///
/// Each dense parameter gets one buffer, allocated on first touch, with a
/// presence flag; each embedding table gets a [`SparseRows`]. A store is
/// reused rather than rebuilt: [`GradStore::reset`] makes it read as
/// fresh (a trainer micro-batch's store), [`GradStore::clear`] zeroes it
/// for the next batch (the batch accumulator).
#[derive(Debug, Clone)]
pub struct GradStore {
    dense: Vec<DenseSlot>,
    sparse: Vec<SparseRows>,
    kinds: Vec<ParamKind>,
    shapes: Vec<(usize, usize)>,
}

impl GradStore {
    /// Creates an empty gradient store shaped after `store`.
    pub fn new(store: &ParamStore) -> Self {
        GradStore {
            dense: vec![DenseSlot::default(); store.len()],
            sparse: store
                .params
                .iter()
                .map(|p| SparseRows::new(p.value.rows(), p.value.cols()))
                .collect(),
            kinds: store.params.iter().map(|p| p.kind).collect(),
            shapes: store.params.iter().map(|p| p.value.shape()).collect(),
        }
    }

    /// Number of parameter slots.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when shaped after an empty store.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Zeroes every accumulated gradient while keeping allocations. A
    /// dense slot that was ever touched stays present, at zero: the
    /// optimizers then update their state through it on every later step.
    pub fn clear(&mut self) {
        for d in &mut self.dense {
            if let (true, Some(buf)) = (d.live, &mut d.buf) {
                buf.fill_zero();
            }
        }
        for s in &mut self.sparse {
            s.reset();
        }
    }

    /// Makes the store read as fresh — every [`GradStore::dense`] is
    /// `None` and no table has rows — in O(rows touched), keeping the
    /// allocations.
    pub fn reset(&mut self) {
        for d in &mut self.dense {
            d.live = false;
        }
        for s in &mut self.sparse {
            s.reset();
        }
    }

    /// Gradient kind of parameter `id`.
    pub fn kind(&self, id: ParamId) -> ParamKind {
        self.kinds[id.0]
    }

    /// Accumulates a dense gradient contribution.
    ///
    /// # Panics
    /// Panics if `id` is an embedding parameter or the shape mismatches.
    pub fn add_dense(&mut self, id: ParamId, grad: &Matrix) {
        scenerec_tensor::linalg::add_scaled(self.dense_mut(id), 1.0, grad);
    }

    /// Accumulates a sparse row gradient for an embedding table.
    ///
    /// # Panics
    /// Panics if `id` is a dense parameter, `row` is outside the table or
    /// `row_grad` has the wrong length.
    pub fn add_row(&mut self, id: ParamId, row: u32, row_grad: &[f32]) {
        self.add_row_scaled(id, row, 1.0, row_grad);
    }

    /// Like [`GradStore::add_row`] but scales the contribution.
    pub fn add_row_scaled(&mut self, id: ParamId, row: u32, alpha: f32, row_grad: &[f32]) {
        let entry = self.row_mut(id, row);
        assert_eq!(row_grad.len(), entry.len(), "row gradient length mismatch");
        scenerec_tensor::linalg::axpy(alpha, row_grad, entry);
        self.sparse[id.0].sort();
    }

    /// The dense gradient buffer of `id`, zeroed first when absent.
    pub(crate) fn dense_mut(&mut self, id: ParamId) -> &mut Matrix {
        assert_eq!(self.kinds[id.0], ParamKind::Dense, "expected dense param");
        self.dense[id.0].touch(self.shapes[id.0])
    }

    /// The gradient of one embedding row, zero-filled when new. Leaves the
    /// table's rows out of order until [`GradStore::sort_rows`].
    pub(crate) fn row_mut(&mut self, id: ParamId, row: u32) -> &mut [f32] {
        assert_eq!(
            self.kinds[id.0],
            ParamKind::Embedding,
            "expected embedding param"
        );
        self.sparse[id.0].entry(row)
    }

    /// Restores every table's ascending row order after `row_mut`.
    pub(crate) fn sort_rows(&mut self) {
        for s in &mut self.sparse {
            s.sort();
        }
    }

    /// Dense gradient of a parameter, if any contribution was recorded.
    pub fn dense(&self, id: ParamId) -> Option<&Matrix> {
        self.dense[id.0].value()
    }

    /// Sparse row gradients of an embedding parameter.
    pub fn sparse(&self, id: ParamId) -> &SparseRows {
        &self.sparse[id.0]
    }

    /// Global gradient norm across all accumulated gradients: dense
    /// parameters in store order, then every table's rows ascending.
    pub fn global_norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for g in self.dense.iter().filter_map(DenseSlot::value) {
            sq += g.as_slice().iter().map(|v| v * v).sum::<f32>();
        }
        for s in &self.sparse {
            for (_, row) in s.iter() {
                sq += row.iter().map(|v| v * v).sum::<f32>();
            }
        }
        sq.sqrt()
    }

    /// Scales every accumulated gradient by `alpha` (gradient clipping).
    pub fn scale(&mut self, alpha: f32) {
        for d in &mut self.dense {
            if let (true, Some(buf)) = (d.live, &mut d.buf) {
                buf.map_inplace(|v| v * alpha);
            }
        }
        for s in &mut self.sparse {
            let dim = s.dim;
            for &r in &s.rows {
                let at = s.slot[r as usize] as usize * dim;
                scenerec_tensor::linalg::scale(alpha, &mut s.vals[at..at + dim]);
            }
        }
    }

    /// Accumulates every gradient recorded in `other` into `self`: one
    /// [`GradStore::reduce`] over a single example.
    ///
    /// # Panics
    /// Panics if the stores are shaped after different [`ParamStore`]s.
    pub fn merge(&mut self, other: &GradStore) {
        self.reduce(std::slice::from_ref(other), 1);
    }

    /// Sums the per-example stores `examples` into `self`, in example
    /// order, on `shares` scoped threads (one share runs inline).
    ///
    /// This is the reduction step of data-parallel training. Dense
    /// parameters are shared out whole and every embedding table by
    /// contiguous row range, so each slot and each row belongs to exactly
    /// one share. A share adds its slots' contributions example by
    /// example, as a serial [`GradStore::merge`] fold would: a slot that
    /// holds nothing yet copies its first contribution (a row starts at
    /// exactly zero), later ones add. The sums are therefore bit-identical
    /// to the fold at any share count, and the shares' ascending rows
    /// concatenate into each table's ascending order.
    ///
    /// # Panics
    /// Panics if a store is shaped after a different [`ParamStore`].
    pub fn reduce(&mut self, examples: &[GradStore], shares: usize) {
        self.reduce_with(shares, |parts| {
            scenerec_tensor::par::for_each_chunk(parts, 1, |_, part| {
                part.iter_mut().for_each(|p| p.absorb(examples));
            });
        });
    }

    /// [`GradStore::reduce`] with the caller running the shares: splits the
    /// store into `shares` disjoint [`ReduceShare`]s, hands them to `run`,
    /// and once `run` returns rebuilds every table's ascending row list.
    /// The result is the reduce's when `run` has every share
    /// [`ReduceShare::absorb`] the same examples, on any threads. The
    /// trainer runs them on its fan-out workers, right after their
    /// forward/backward work.
    pub fn reduce_with<R>(
        &mut self,
        shares: usize,
        run: impl FnOnce(&mut [ReduceShare<'_>]) -> R,
    ) -> R {
        let shares = shares.max(1);
        let mut parts: Vec<ReduceShare<'_>> = (0..shares)
            .map(|_| ReduceShare {
                shapes: &self.shapes,
                dense: Vec::new(),
                rows: Vec::new(),
            })
            .collect();
        // Dense parameters, whole, each to the least-loaded share.
        let mut load = vec![0usize; shares];
        for (id, (slot, &(r, c))) in self.dense.iter_mut().zip(&self.shapes).enumerate() {
            if self.kinds[id] == ParamKind::Dense {
                let s = (0..shares).min_by_key(|&s| load[s]).unwrap_or(0);
                load[s] += r * c;
                parts[s].dense.push((id, slot));
            }
        }
        // Every embedding table by contiguous row range.
        for (id, rows) in self.sparse.iter_mut().enumerate() {
            if self.kinds[id] == ParamKind::Embedding {
                rows.make_direct();
                for (part, range) in parts.iter_mut().zip(rows.ranges(shares)) {
                    part.rows.push((id, range));
                }
            }
        }
        let out = run(&mut parts);
        drop(parts);
        for (id, rows) in self.sparse.iter_mut().enumerate() {
            if self.kinds[id] == ParamKind::Embedding {
                rows.collect_rows();
            }
        }
        out
    }

    /// True when every accumulated gradient value is finite.
    pub fn all_finite(&self) -> bool {
        self.dense
            .iter()
            .filter_map(DenseSlot::value)
            .all(Matrix::all_finite)
            && self
                .sparse
                .iter()
                .all(|s| s.iter().all(|(_, r)| r.iter().all(|v| v.is_finite())))
    }
}

/// The slots one worker of a [`GradStore::reduce_with`] owns: whole dense
/// parameters and one row range of every embedding table.
pub struct ReduceShare<'a> {
    shapes: &'a [(usize, usize)],
    dense: Vec<(usize, &'a mut DenseSlot)>,
    rows: Vec<(usize, RowRange<'a>)>,
}

impl ReduceShare<'_> {
    /// Adds every example's contributions to this share's slots, slot by
    /// slot, in example order.
    ///
    /// # Panics
    /// Panics if an example is shaped after a different [`ParamStore`].
    pub fn absorb<'e, I>(&mut self, examples: I)
    where
        I: IntoIterator<Item = &'e GradStore>,
        I::IntoIter: Clone,
    {
        let examples = examples.into_iter();
        for e in examples.clone() {
            assert_eq!(self.shapes, &e.shapes[..], "GradStore layout mismatch");
        }
        for (id, slot) in &mut self.dense {
            for e in examples.clone() {
                if let Some(g) = e.dense[*id].value() {
                    slot.absorb(g);
                }
            }
        }
        for (id, range) in &mut self.rows {
            for e in examples.clone() {
                range.absorb(&e.sparse[*id]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store_with_two() -> (ParamStore, ParamId, ParamId) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        let w = s.add_dense("w", 2, 3, Initializer::Constant(1.0), &mut rng);
        let e = s.add_embedding("emb", 10, 4, Initializer::Constant(0.5), &mut rng);
        (s, w, e)
    }

    #[test]
    fn add_and_lookup() {
        let (s, w, e) = store_with_two();
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup("w"), Some(w));
        assert_eq!(s.lookup("emb"), Some(e));
        assert_eq!(s.lookup("missing"), None);
        assert_eq!(s.param(w).kind(), ParamKind::Dense);
        assert_eq!(s.param(e).kind(), ParamKind::Embedding);
        assert_eq!(s.num_scalars(), 2 * 3 + 10 * 4);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let (mut s, ..) = store_with_two();
        let mut rng = StdRng::seed_from_u64(0);
        s.add_dense("w", 1, 1, Initializer::Zeros, &mut rng);
    }

    #[test]
    fn l2_counts_dense_and_touched_rows() {
        let (s, _w, e) = store_with_two();
        // Dense: 6 ones => 6. One embedding row of 4 x 0.25 => 1.
        let l2 = s.l2_of(&[(e, 3)]);
        assert!((l2 - 7.0).abs() < 1e-6, "l2={l2}");
        // No rows: dense only.
        assert!((s.l2_of(&[]) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn grad_store_dense_accumulates() {
        let (s, w, _e) = store_with_two();
        let mut g = GradStore::new(&s);
        assert!(g.dense(w).is_none());
        let one = Matrix::full(2, 3, 1.0);
        g.add_dense(w, &one);
        g.add_dense(w, &one);
        assert_eq!(g.dense(w).unwrap().as_slice(), &[2.0; 6]);
    }

    #[test]
    fn grad_store_sparse_accumulates() {
        let (s, _w, e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_row(e, 2, &[1.0, 0.0, 0.0, 0.0]);
        g.add_row(e, 2, &[1.0, 2.0, 0.0, 0.0]);
        g.add_row_scaled(e, 7, 0.5, &[2.0, 2.0, 2.0, 2.0]);
        let rows = g.sparse(e);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.get(2).unwrap(), vec![2.0, 2.0, 0.0, 0.0]);
        assert_eq!(rows.get(7).unwrap(), vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "expected dense param")]
    fn dense_grad_on_embedding_panics() {
        let (s, _w, e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_dense(e, &Matrix::zeros(10, 4));
    }

    #[test]
    #[should_panic(expected = "expected embedding param")]
    fn row_grad_on_dense_panics() {
        let (s, w, _e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_row(w, 0, &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn clear_keeps_shape_but_zeroes() {
        let (s, w, e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_dense(w, &Matrix::full(2, 3, 1.0));
        g.add_row(e, 1, &[1.0; 4]);
        g.clear();
        assert_eq!(g.dense(w).unwrap().sum(), 0.0);
        assert!(g.sparse(e).is_empty());
    }

    #[test]
    fn global_norm_and_scale() {
        let (s, w, e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_dense(w, &Matrix::full(2, 3, 2.0)); // 6 * 4 = 24
        g.add_row(e, 0, &[3.0, 0.0, 0.0, 0.0]); // 9
        assert!((g.global_norm() - (33.0f32).sqrt()).abs() < 1e-5);
        g.scale(0.5);
        assert!((g.global_norm() - (33.0f32).sqrt() / 2.0).abs() < 1e-5);
    }

    #[test]
    fn merge_matches_in_place_accumulation() {
        let (s, w, e) = store_with_two();
        // Serial reference: everything accumulated into one store.
        let mut serial = GradStore::new(&s);
        serial.add_dense(w, &Matrix::full(2, 3, 0.25));
        serial.add_row(e, 1, &[1.0, 2.0, 3.0, 4.0]);
        serial.add_dense(w, &Matrix::full(2, 3, 0.5));
        serial.add_row(e, 1, &[0.5; 4]);
        serial.add_row(e, 6, &[1.0; 4]);
        // Parallel shape: two per-example stores merged in example order.
        let mut a = GradStore::new(&s);
        a.add_dense(w, &Matrix::full(2, 3, 0.25));
        a.add_row(e, 1, &[1.0, 2.0, 3.0, 4.0]);
        let mut b = GradStore::new(&s);
        b.add_dense(w, &Matrix::full(2, 3, 0.5));
        b.add_row(e, 1, &[0.5; 4]);
        b.add_row(e, 6, &[1.0; 4]);
        let mut merged = GradStore::new(&s);
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(
            merged.dense(w).unwrap().as_slice(),
            serial.dense(w).unwrap().as_slice()
        );
        assert_eq!(merged.sparse(e), serial.sparse(e));
    }

    #[test]
    fn merge_into_cleared_store_reuses_allocations() {
        let (s, w, _e) = store_with_two();
        let mut acc = GradStore::new(&s);
        acc.add_dense(w, &Matrix::full(2, 3, 1.0));
        acc.clear(); // dense slot stays allocated at zero
        let mut other = GradStore::new(&s);
        other.add_dense(w, &Matrix::full(2, 3, 2.0));
        acc.merge(&other);
        assert_eq!(acc.dense(w).unwrap().as_slice(), &[2.0; 6]);
    }

    #[test]
    #[should_panic(expected = "GradStore layout mismatch")]
    fn merge_rejects_foreign_layout() {
        let (s, ..) = store_with_two();
        let mut other_store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        other_store.add_dense("x", 1, 1, Initializer::Zeros, &mut rng);
        let mut a = GradStore::new(&s);
        a.merge(&GradStore::new(&other_store));
    }

    /// The data-parallel trainer moves `GradStore`s across scoped threads
    /// and shares `ParamStore` references between workers; pin those auto
    /// traits at compile time.
    #[test]
    fn stores_are_send_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<GradStore>();
        assert_sync::<GradStore>();
        assert_send::<ParamStore>();
        assert_sync::<ParamStore>();
    }

    #[test]
    fn finite_check() {
        let (s, w, _e) = store_with_two();
        let mut g = GradStore::new(&s);
        g.add_dense(w, &Matrix::full(2, 3, 1.0));
        assert!(g.all_finite());
        let mut bad = Matrix::zeros(2, 3);
        bad.set(0, 0, f32::NAN);
        g.add_dense(w, &bad);
        assert!(!g.all_finite());
    }
}
