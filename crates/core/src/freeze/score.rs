//! Frozen scoring: the one routine that scores item rows against a user
//! row. The serving engine (`scenerec_serve::ShardedEngine`) scores each
//! shard through it, and SceneRec ranks evaluation candidates through it
//! (`PairwiseModel::rank_scores`).
//!
//! # Parity contract
//!
//! For any user/item, [`ItemSide`] scores of an f32 snapshot are
//! **bit-identical** to what the training-side
//! `PairwiseModel::score_values` would produce on a tape. This holds
//! because:
//!
//! * the frozen user/item rows are tape-evaluated values (see
//!   [`crate::freeze`]),
//! * every f32 dot — the dot head, each half of the MLP head's first
//!   layer, its hidden layers through `score_bt` and its output layer —
//!   comes out of `linalg::dot_rows_into`, the workspace's one
//!   dot-per-element loop, which the tape's `affine`, `affine_split`
//!   and `matvec` run too. Its AVX2 tile dots 8 rows per step, but each
//!   row keeps its own accumulator, reduced in `linalg::dot`'s pairwise
//!   order with the tail added last, so each element equals `dot` on
//!   its pair (the tape's `dot` operator), whatever rows share its
//!   tile, band or thread,
//! * the bias is one add after the dot, as in the tape's `affine`,
//! * the MLP head's first layer follows the tape's `affine_split` float
//!   order, `(W[:, ..du]·m_u + b) + W[:, du..]·m_i`: an item side keeps
//!   the right-hand term per item (`P`, projected once when it is built,
//!   from the same rows and the same tile) and adds it to the left-hand
//!   term, computed once per call; the activation follows the add, as on
//!   the tape,
//! * the scalar output layer is one tile call `dot(w_out, h_i)` over the
//!   items' hidden rows, where the tape computes `dot(h_i, w_out)`: each
//!   lane multiplies the same pair of floats (IEEE 754 multiplication is
//!   commutative, `a*b == b*a` bit for bit) and the lanes accumulate and
//!   reduce in the same order, so the two are the same float.
//!
//! An element depends only on its user row, its item row and that
//! item's head state (its bias, or its projection), never on which other
//! rows ride in the same call. So [`ItemSide::score_rows`], which scores
//! a candidate list, gives each listed row the bits the full scan
//! [`ItemSide::score`] gives it, and slicing a catalog into shards (like
//! banding and threading) cannot change a bit.
//!
//! # Quantized item sides
//!
//! An item side can score a frozen model at any [`Precision`]:
//!
//! * **f32** keeps the bit-exact tape parity above.
//! * **f16** widens rows exactly at score time (the only error vs. f32
//!   is the one-time narrowing at freeze), in the same float order as
//!   the f32 kernels.
//! * **int8** scores dot heads in exact integer arithmetic
//!   (`scenerec_tensor::quant::dot_i8_centered`) with one fixed-order
//!   f32 rescale per element.
//!
//! MLP heads at f16 and int8 expand rows to f32 (exact widening /
//! dequantization) and run the f32 path above, so a quantized MLP side
//! scores exactly like an f32 side over the expanded rows. Its item
//! projection is built from those expanded rows and always stays f32:
//! `h` floats per item, 128 B at the default `h = 32`, against 128 B for
//! the item's f32 row, 64 B for its f16 row and 40 B for its int8 row
//! (`d = 32` codes plus a scale and a zero point). So an f16 or int8 MLP
//! side scores from about 3x or 4x the item bytes its rows alone take;
//! dot heads keep no projection.
//!
//! Every precision keeps the *determinism* contract: identical bytes
//! across kernel backends, thread counts and worker counts.
//!
//! [`Precision`]: super::Precision

use super::{EntityMatrix, FrozenHead};
use scenerec_tensor::score::try_score_bt;
use scenerec_tensor::{linalg, quant, Matrix};

/// One catalog range as frozen scoring sees it: its item rows, its slice
/// of the head, and, for an MLP head, the item half of the first layer
/// projected once per item.
#[derive(Debug)]
pub struct ItemSide {
    items: EntityMatrix,
    head: FrozenHead,
    /// MLP heads: row `i` is `W[:, du..] · m_i` for the first layer's
    /// weights `W`, the user width `du` and item row `i` expanded to f32
    /// (`rows x h`). Dot heads: `0 x 0`.
    proj: Matrix,
}

/// The item rows one scoring call covers, in output order.
#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    /// Every row, ascending: a full scan.
    All(usize),
    /// The listed rows, in list order, each checked against the row
    /// count before any is read.
    Listed(&'a [u32]),
}

impl<'a> Rows<'a> {
    fn len(self) -> usize {
        match self {
            Rows::All(n) => n,
            Rows::Listed(rows) => rows.len(),
        }
    }

    /// The item row that output element `j` scores.
    #[inline]
    fn at(self, j: usize) -> usize {
        match self {
            Rows::All(_) => j,
            Rows::Listed(rows) => rows[j] as usize,
        }
    }

    /// The item rows in output order.
    fn iter(self) -> impl Iterator<Item = usize> + 'a {
        (0..self.len()).map(move |j| self.at(j))
    }
}

impl ItemSide {
    /// Checks `head` against `user_dim` and the item rows, and for an MLP
    /// head projects every item row through the item half of its first
    /// layer. The one constructor: engine builds, shard swaps and
    /// SceneRec's ranking view all come through here, so a side's
    /// projection always matches its rows.
    ///
    /// # Errors
    /// The first inconsistency [`FrozenHead::validate`] finds.
    pub fn new(items: EntityMatrix, head: FrozenHead, user_dim: usize) -> Result<Self, String> {
        head.validate(user_dim, items.cols(), items.rows())?;
        let proj = match &head {
            FrozenHead::DotBias { .. } => Matrix::zeros(0, 0),
            FrozenHead::Mlp { layers } => {
                let w = &layers[0].w;
                let w_items = w.as_slice().get(user_dim..).unwrap_or_default();
                let mut proj = Matrix::zeros(items.rows(), w.rows());
                let mut m = vec![0.0f32; items.cols()];
                for i in 0..items.rows() {
                    items.expand_row_into(i, &mut m);
                    linalg::dot_rows_into(&m, w_items, w.cols(), proj.row_mut(i));
                }
                proj
            }
        };
        Ok(ItemSide { items, head, proj })
    }

    /// The item rows, at their storage precision.
    pub fn items(&self) -> &EntityMatrix {
        &self.items
    }

    /// Scores every item row against `users` row `user`, in row order:
    /// the full scan a serving shard runs on a cache miss (its caller
    /// drops seen items while ranking). `band` bounds the rows per MLP
    /// head band; `threads` go to `score_bt` for hidden layers after the
    /// first. Neither changes a bit.
    ///
    /// # Errors
    /// `user` outside `users`, or user and item rows at different
    /// precisions.
    pub fn score(
        &self,
        users: &EntityMatrix,
        user: usize,
        band: usize,
        threads: usize,
    ) -> Result<Vec<f32>, String> {
        self.score_in(users, user, Rows::All(self.items.rows()), band, threads)
    }

    /// Scores the listed item rows against `users` row `user`, in list
    /// order: element `j` is row `rows[j]`'s score, the bits
    /// [`ItemSide::score`] gives that row. Rows may repeat and come in
    /// any order; only they are scored, so a candidate list costs its
    /// length, not the catalog's.
    ///
    /// # Errors
    /// A listed row outside the item rows (checked before any row is
    /// read), and every error of [`ItemSide::score`].
    pub fn score_rows(
        &self,
        users: &EntityMatrix,
        user: usize,
        rows: &[u32],
        band: usize,
        threads: usize,
    ) -> Result<Vec<f32>, String> {
        let n = self.items.rows();
        if let Some(&row) = rows.iter().find(|&&r| r as usize >= n) {
            return Err(format!("item row {row} out of range ({n} item rows)"));
        }
        self.score_in(users, user, Rows::Listed(rows), band, threads)
    }

    fn score_in(
        &self,
        users: &EntityMatrix,
        user: usize,
        rows: Rows<'_>,
        band: usize,
        threads: usize,
    ) -> Result<Vec<f32>, String> {
        if user >= users.rows() {
            return Err(format!(
                "user row {user} out of range ({} user rows)",
                users.rows()
            ));
        }
        let band = band.max(1);
        let n = rows.len();
        let mut out = Vec::with_capacity(n);
        match &self.head {
            // Dot heads score straight off the stored representation:
            // f32 runs the 8-row `linalg::dot_rows_into` tile over a full
            // scan and `linalg::dot` per listed row, each score
            // bit-identical to the tape's `linalg::dot`; f16 widens item
            // lanes in-kernel against the (exactly widened) user row; int8
            // accumulates in exact integer arithmetic and rescales with one
            // fixed-order f32 multiply chain per element. The bias is one
            // add after the dot, as in the tape.
            FrozenHead::DotBias { bias } => match (users, &self.items) {
                (EntityMatrix::F32(users), EntityMatrix::F32(catalog)) => {
                    let u = users.row(user);
                    match rows {
                        Rows::All(_) => {
                            out.resize(n, 0.0);
                            linalg::dot_rows_into(u, catalog.as_slice(), catalog.cols(), &mut out);
                            for (v, &b) in out.iter_mut().zip(bias) {
                                *v += b;
                            }
                        }
                        Rows::Listed(_) => {
                            out.extend(
                                rows.iter()
                                    .map(|i| linalg::dot(u, catalog.row(i)) + bias[i]),
                            );
                        }
                    }
                }
                (EntityMatrix::F16(users), EntityMatrix::F16(catalog)) => {
                    let mut u = vec![0.0f32; users.cols()];
                    users.widen_row_into(user, &mut u);
                    for i in rows.iter() {
                        out.push(quant::dot_f16(&u, catalog.row(i)) + bias[i]);
                    }
                }
                (EntityMatrix::Int8(users), EntityMatrix::Int8(catalog)) => {
                    let uc = users.centered_row(user);
                    let su = users.scale(user);
                    for i in rows.iter() {
                        let zv = catalog.zero_point(i) as i16;
                        let idot = quant::dot_i8_centered(&uc, catalog.row(i), zv);
                        out.push(su * catalog.scale(i) * idot as f32 + bias[i]);
                    }
                }
                // Engine constructors validate matching precisions;
                // reachable only through a hand-built inconsistent model.
                _ => return Err("user/item entity matrices disagree on precision".to_owned()),
            },
            // MLP heads: the first layer is `(W[:, ..du]·u + b) +
            // W[:, du..]·m_i`, the tape's `affine_split` order. The user
            // half plus the bias is one strided tile call per call; the
            // item half is the projection. Each band then needs the add
            // and the activation per element, any hidden layers through
            // `score_bt`, and the scalar output layer as one tile call
            // `dot(w_out, h_i)` over the band's rows, which equals the
            // tape's `dot(h_i, w_out)` bit for bit: each lane multiplies
            // the same pair (`a*b == b*a` in IEEE 754) and accumulates in
            // the same order.
            FrozenHead::Mlp { layers } => {
                let Some((first, rest)) = layers.split_first() else {
                    return Err("MLP head with no layers".to_owned());
                };
                let mut u = vec![0.0f32; users.cols()];
                users.expand_row_into(user, &mut u);
                let h = first.w.rows();
                let mut q = vec![0.0f32; h];
                linalg::dot_rows_into(&u, first.w.as_slice(), first.w.cols(), &mut q);
                for (v, &b) in q.iter_mut().zip(&first.b) {
                    *v += b;
                }
                out.resize(n, 0.0);
                for start in (0..n).step_by(band) {
                    let end = n.min(start + band);
                    let mut x = Vec::with_capacity((end - start) * h);
                    for j in start..end {
                        let p = self.proj.row(rows.at(j));
                        x.extend(q.iter().zip(p).map(|(&qv, &pv)| qv + pv));
                    }
                    first.act.apply_all(&mut x);
                    let scores = &mut out[start..end];
                    let Some((last, hidden)) = rest.split_last() else {
                        // The first layer is the scalar output layer.
                        scores.copy_from_slice(&x);
                        continue;
                    };
                    let mut x = Matrix::from_vec(end - start, h, x).map_err(|e| e.to_string())?;
                    for layer in hidden {
                        x = try_score_bt(&x, &layer.w, Some(&layer.b), threads)
                            .map_err(|e| e.to_string())?;
                        layer.act.apply_all(x.as_mut_slice());
                    }
                    linalg::dot_rows_into(last.w.as_slice(), x.as_slice(), x.cols(), scores);
                    for v in scores.iter_mut() {
                        *v += last.b[0];
                    }
                    last.act.apply_all(scores);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{FrozenLayer, FrozenModel, Precision};
    use super::*;
    use scenerec_autodiff::Act;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The whole catalog of `frozen` as one side, with its user rows.
    fn side_of(frozen: FrozenModel) -> (EntityMatrix, ItemSide) {
        let user_dim = frozen.users.cols();
        let side = ItemSide::new(frozen.items, frozen.head, user_dim).unwrap();
        (frozen.users, side)
    }

    /// A deterministic MLP head `input → hidden… → 1`: tanh between
    /// layers, identity at the scalar output.
    fn mlp_head(input: usize, hidden: &[usize]) -> FrozenHead {
        let mut sizes = vec![input];
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        let last = sizes.len() - 2;
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(k, io)| {
                let (fan_in, fan_out) = (io[0], io[1]);
                let w = (0..fan_out * fan_in)
                    .map(|x| ((x * 7 + k) % 13) as f32 / 13.0 - 0.5)
                    .collect();
                FrozenLayer {
                    w: Matrix::from_vec(fan_out, fan_in, w).unwrap(),
                    b: (0..fan_out).map(|x| x as f32 * 0.01 - 0.02).collect(),
                    act: if k == last { Act::Identity } else { Act::Tanh },
                }
            })
            .collect();
        FrozenHead::Mlp { layers }
    }

    /// Every head shape — dot plus bias, and MLPs whose first layer is
    /// the output layer, is followed by it, and is followed by a hidden
    /// layer — at every precision, over one pseudo-random catalog whose
    /// values no precision represents exactly: (label, users, side).
    fn every_side() -> Vec<(String, EntityMatrix, ItemSide)> {
        let base = FrozenModel::synthetic("base", 5, 23, 6, 11).unwrap();
        let heads = [
            ("dot", base.head.clone()),
            ("mlp []", mlp_head(12, &[])),
            ("mlp [5]", mlp_head(12, &[5])),
            ("mlp [5, 4]", mlp_head(12, &[5, 4])),
        ];
        let mut sides = Vec::new();
        for (name, head) in heads {
            let model = FrozenModel {
                head,
                ..base.clone()
            };
            for precision in [Precision::F32, Precision::F16, Precision::Int8] {
                let (users, side) = side_of(model.quantize(precision).unwrap());
                sides.push((format!("{name} at {}", precision.name()), users, side));
            }
        }
        sides
    }

    #[test]
    fn scores_match_manual_dot() {
        let mut users = Matrix::zeros(3, 2);
        users.set_row(0, &[1.0, 0.0]);
        users.set_row(1, &[0.0, 1.0]);
        users.set_row(2, &[1.0, 1.0]);
        let mut items = Matrix::zeros(4, 2);
        items.set_row(0, &[1.0, 0.0]);
        items.set_row(1, &[0.0, 1.0]);
        items.set_row(2, &[0.5, 0.5]);
        items.set_row(3, &[2.0, 0.0]);
        let head = FrozenHead::DotBias { bias: vec![0.0; 4] };
        let (users, side) = side_of(FrozenModel::dense("toy", users, items, head));
        assert_eq!(side.score(&users, 0, 512, 1).unwrap(), [1.0, 0.0, 0.5, 2.0]);
        assert_eq!(side.score(&users, 2, 512, 1).unwrap(), [1.0, 1.0, 1.0, 2.0]);
    }

    /// Every quantized precision's scores equal a from-scratch recompute
    /// off the stored representation — pinned bit for bit, so any
    /// accidental reordering (or backend divergence) in the quantized
    /// paths fails loudly.
    #[test]
    fn quantized_scores_match_manual_recompute_bitwise() {
        use scenerec_tensor::quant::{dot_f16, dot_i8_centered};

        let base = FrozenModel::synthetic("rand", 6, 40, 33, 3).unwrap();
        for precision in [Precision::F16, Precision::Int8] {
            let frozen = base.quantize(precision).unwrap();
            let FrozenHead::DotBias { bias } = frozen.head.clone() else {
                unreachable!()
            };
            let (users, side) = side_of(frozen);
            for user in 0..users.rows() {
                let got = side.score(&users, user, 512, 1).unwrap();
                for (i, &b) in bias.iter().enumerate() {
                    let want = match (&users, side.items()) {
                        (EntityMatrix::F16(u), EntityMatrix::F16(c)) => {
                            let mut uw = vec![0.0f32; u.cols()];
                            u.widen_row_into(user, &mut uw);
                            dot_f16(&uw, c.row(i)) + b
                        }
                        (EntityMatrix::Int8(u), EntityMatrix::Int8(c)) => {
                            let uc = u.centered_row(user);
                            let idot = dot_i8_centered(&uc, c.row(i), c.zero_point(i) as i16);
                            u.scale(user) * c.scale(i) * idot as f32 + b
                        }
                        _ => unreachable!(),
                    };
                    assert_eq!(
                        got[i].to_bits(),
                        want.to_bits(),
                        "{} user {user} item {i}",
                        precision.name()
                    );
                }
            }
        }
    }

    /// An MLP head over quantized matrices expands rows to f32 and
    /// replays the f32 stack — scores equal the same head over the
    /// pre-expanded dense matrices.
    #[test]
    fn quantized_mlp_head_equals_dense_expansion() {
        let base = FrozenModel::synthetic("mlp", 4, 12, 6, 5).unwrap();
        let mlp = FrozenModel {
            head: mlp_head(12, &[3]),
            ..base
        };
        for precision in [Precision::F16, Precision::Int8] {
            let q = mlp.quantize(precision).unwrap();
            // Reference: densify the quantized matrices by hand and score
            // them at f32.
            let dense =
                FrozenModel::dense("mlp", q.users.to_f32(), q.items.to_f32(), q.head.clone());
            let (qu, qs) = side_of(q);
            let (du, ds) = side_of(dense);
            for user in 0..4 {
                assert_eq!(
                    bits(&qs.score(&qu, user, 512, 1).unwrap()),
                    bits(&ds.score(&du, user, 512, 1).unwrap()),
                    "{} user {user}",
                    precision.name()
                );
            }
        }
    }

    /// A candidate list — unsorted, with repeats, empty, or the whole
    /// range — scores each listed row with the bits the full scan gives
    /// it, for every head shape at every precision, at band sizes that
    /// split the list and one that does not.
    #[test]
    fn listed_rows_score_the_bits_of_the_full_scan() {
        for (label, users, side) in every_side() {
            let n = side.items().rows() as u32;
            let lists = [
                ("unsorted", vec![17, 2, 22, 0, 9, 4]),
                ("with repeats", vec![3, 3, 0, 3, 21, 0, 21]),
                ("empty", vec![]),
                ("whole range", (0..n).collect()),
            ];
            for user in 0..users.rows() {
                for (band, threads) in [(1, 1), (4, 2), (512, 1)] {
                    let full = side.score(&users, user, band, threads).unwrap();
                    assert_eq!(full.len(), n as usize);
                    for (kind, list) in &lists {
                        let got = side.score_rows(&users, user, list, band, threads).unwrap();
                        let want: Vec<u32> =
                            list.iter().map(|&r| full[r as usize].to_bits()).collect();
                        assert_eq!(
                            bits(&got),
                            want,
                            "{label}, {kind} list, user {user}, band {band}"
                        );
                    }
                }
            }
        }
    }

    /// A row or user outside the side is an error, never a read past
    /// the rows, at every head shape and precision.
    #[test]
    fn out_of_range_rows_and_users_are_errors() {
        for (label, users, side) in every_side() {
            let n = side.items().rows() as u32;
            for list in [vec![n], vec![0, 5, n + 7], vec![u32::MAX]] {
                let err = side.score_rows(&users, 0, &list, 512, 1).unwrap_err();
                assert!(err.contains("out of range"), "{label}, {list:?}: {err}");
            }
            let past = users.rows();
            assert!(side.score(&users, past, 512, 1).is_err(), "{label}");
            assert!(
                side.score_rows(&users, past, &[0], 512, 1).is_err(),
                "{label}"
            );
        }
    }
}
