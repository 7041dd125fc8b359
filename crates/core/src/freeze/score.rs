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
//!   comes out of `linalg::dot_rows_into`, the workspace's one-x-row
//!   dot-per-element loop, which the tape's `affine`, `affine_split`
//!   and `matvec` run too, or out of its many-row sibling
//!   `linalg::dot_rows_many_into`, which a dot head's grouped users and
//!   `score_bt` run. The AVX2 tile dots one x-row against 8 rows per
//!   step and the AVX-512 block kernel four x-rows against 8, but each
//!   (x-row, row) pair keeps its own accumulator, reduced in
//!   `linalg::dot`'s pairwise order with the tail added last, so each
//!   element equals `dot` on its pair (the tape's `dot` operator),
//!   whatever rows or users share its tile, group, band or thread,
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
//! rows or users ride in the same call. So [`ItemSide::score_rows`],
//! which scores a candidate list, and [`ItemSide::score_range`] over any
//! row range and any group of users give each (user, row) the bits the
//! user's full scan (the range `0..rows`) gives it, and slicing a
//! catalog into shards or tiles, or a batch into groups of four (like
//! banding), cannot change a bit.
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
//! across worker counts, and across kernel backends
//! for every non-NaN score. A NaN score stays NaN on every backend, but
//! its sign and payload may differ (see `scenerec_tensor::linalg::dot`);
//! neither serving's top-K nor a response byte depends on that, as the
//! selection's key puts every NaN in one class and responses print
//! `NaN`.
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

/// The item rows one scoring call covers, in output order; checked
/// against the row count before any is read.
#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    /// Rows `start..end`, ascending: a tile, or the full scan `0..rows`.
    Range(usize, usize),
    /// The listed rows, in list order.
    Listed(&'a [u32]),
}

impl<'a> Rows<'a> {
    fn len(self) -> usize {
        match self {
            Rows::Range(start, end) => end - start,
            Rows::Listed(rows) => rows.len(),
        }
    }

    /// The item row that output element `j` scores.
    #[inline]
    fn at(self, j: usize) -> usize {
        match self {
            Rows::Range(start, _) => start + j,
            Rows::Listed(rows) => rows[j] as usize,
        }
    }

    /// The item rows in output order.
    fn iter(self) -> impl Iterator<Item = usize> + 'a {
        (0..self.len()).map(move |j| self.at(j))
    }
}

/// The error for a user row past `users`.
fn user_out_of_range(user: usize, users: &EntityMatrix) -> String {
    format!("user row {user} out of range ({} user rows)", users.rows())
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

    /// Scores item rows `rows` against each user row of `user_rows` into
    /// `out`, one `rows`-long slice per user in `user_rows` order:
    /// `out[u * len + j]` is user `user_rows[u]`'s score of row
    /// `rows.start + j`, `len` being the range's length. The range
    /// `0..rows` is the full scan; a serving shard walks its rows in
    /// tiles of this form for up to [`linalg::BLOCK_X_ROWS`] pending
    /// requests at a time, reusing one `out` (resized to
    /// `user_rows.len() * len`, so a reused buffer of that length is
    /// only overwritten).
    /// A dot head over f32 rows scores each group of
    /// [`linalg::BLOCK_X_ROWS`] users in one
    /// [`linalg::dot_rows_many_into`] call, which reads each block of
    /// the tile once for the whole group; every other head and precision
    /// scores user by user. `band` bounds the rows per MLP head band;
    /// neither it nor the users sharing a call changes a bit.
    ///
    /// # Errors
    /// An inverted range or one past the item rows, or a user outside
    /// `users` (all checked before any row is read), or user and item
    /// rows at different precisions.
    pub fn score_range(
        &self,
        users: &EntityMatrix,
        user_rows: &[usize],
        rows: std::ops::Range<usize>,
        band: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), String> {
        let n = self.items.rows();
        if rows.start > rows.end || rows.end > n {
            return Err(format!(
                "item rows {}..{} out of range ({n} item rows)",
                rows.start, rows.end
            ));
        }
        if let Some(&user) = user_rows.iter().find(|&&u| u >= users.rows()) {
            return Err(user_out_of_range(user, users));
        }
        let len = rows.len();
        out.resize(user_rows.len() * len, 0.0);
        match (&self.head, users, &self.items) {
            // The block path: each group's x-rows against the tile, then
            // the bias as one add after the dot, as in the tape.
            (
                FrozenHead::DotBias { bias },
                EntityMatrix::F32(users),
                EntityMatrix::F32(catalog),
            ) if len > 0 => {
                let cols = catalog.cols();
                let tile = &catalog.as_slice()[rows.start * cols..rows.end * cols];
                let bias = &bias[rows];
                let groups = user_rows.chunks(linalg::BLOCK_X_ROWS);
                for (group, out) in groups.zip(out.chunks_mut(linalg::BLOCK_X_ROWS * len)) {
                    let mut xs: [&[f32]; linalg::BLOCK_X_ROWS] = [&[]; linalg::BLOCK_X_ROWS];
                    for (x, &user) in xs.iter_mut().zip(group) {
                        *x = users.row(user);
                    }
                    linalg::dot_rows_many_into(&xs[..group.len()], tile, cols, len, out);
                    for scores in out.chunks_mut(len) {
                        for (v, &b) in scores.iter_mut().zip(bias) {
                            *v += b;
                        }
                    }
                }
            }
            _ => {
                let rows = Rows::Range(rows.start, rows.end);
                for (u, &user) in user_rows.iter().enumerate() {
                    let out = &mut out[u * len..(u + 1) * len];
                    self.score_in(users, user, rows, band, out)?;
                }
            }
        }
        Ok(())
    }

    /// Scores the listed item rows against `users` row `user`, in list
    /// order: element `j` is row `rows[j]`'s score, the bits the full
    /// scan gives that row. Rows may repeat and come in any order; only
    /// they are scored, so a candidate list costs its length, not the
    /// catalog's.
    ///
    /// # Errors
    /// A listed row outside the item rows (checked before any row is
    /// read), and every error of [`ItemSide::score_range`].
    pub fn score_rows(
        &self,
        users: &EntityMatrix,
        user: usize,
        rows: &[u32],
        band: usize,
    ) -> Result<Vec<f32>, String> {
        let n = self.items.rows();
        if let Some(&row) = rows.iter().find(|&&r| r as usize >= n) {
            return Err(format!("item row {row} out of range ({n} item rows)"));
        }
        if user >= users.rows() {
            return Err(user_out_of_range(user, users));
        }
        let mut out = vec![0.0; rows.len()];
        self.score_in(users, user, Rows::Listed(rows), band, &mut out)?;
        Ok(out)
    }

    /// Scores `rows` (checked by the caller) against `user` (checked by
    /// the caller) into `out`, one element per row: every path
    /// overwrites each element.
    fn score_in(
        &self,
        users: &EntityMatrix,
        user: usize,
        rows: Rows<'_>,
        band: usize,
        out: &mut [f32],
    ) -> Result<(), String> {
        let band = band.max(1);
        let n = rows.len();
        match &self.head {
            // Dot heads score straight off the stored representation:
            // f32 runs `linalg::dot` per row (a row range's f32 dot goes
            // through `score_range`'s block path instead, with the same
            // bits), each score bit-identical to the tape's
            // `linalg::dot`; f16 widens item lanes in-kernel against the
            // (exactly widened) user row; int8 accumulates in exact
            // integer arithmetic and rescales with one fixed-order f32
            // multiply chain per element. The bias is one add after the
            // dot, as in the tape.
            FrozenHead::DotBias { bias } => match (users, &self.items) {
                (EntityMatrix::F32(users), EntityMatrix::F32(catalog)) => {
                    let u = users.row(user);
                    for (v, i) in out.iter_mut().zip(rows.iter()) {
                        *v = linalg::dot(u, catalog.row(i)) + bias[i];
                    }
                }
                (EntityMatrix::F16(users), EntityMatrix::F16(catalog)) => {
                    let mut u = vec![0.0f32; users.cols()];
                    users.widen_row_into(user, &mut u);
                    for (v, i) in out.iter_mut().zip(rows.iter()) {
                        *v = quant::dot_f16(&u, catalog.row(i)) + bias[i];
                    }
                }
                (EntityMatrix::Int8(users), EntityMatrix::Int8(catalog)) => {
                    let uc = users.centered_row(user);
                    let su = users.scale(user);
                    for (v, i) in out.iter_mut().zip(rows.iter()) {
                        let zv = catalog.zero_point(i) as i16;
                        let idot = quant::dot_i8_centered(&uc, catalog.row(i), zv);
                        *v = su * catalog.scale(i) * idot as f32 + bias[i];
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
                        x = try_score_bt(&x, &layer.w, Some(&layer.b), 1)
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
        Ok(())
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

    /// The full scan: `side`'s range `0..rows`.
    fn scan(
        side: &ItemSide,
        users: &EntityMatrix,
        user: usize,
        band: usize,
    ) -> Result<Vec<f32>, String> {
        let mut out = Vec::new();
        let rows = 0..side.items().rows();
        side.score_range(users, &[user], rows, band, &mut out)?;
        Ok(out)
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
        assert_eq!(scan(&side, &users, 0, 512).unwrap(), [1.0, 0.0, 0.5, 2.0]);
        assert_eq!(scan(&side, &users, 2, 512).unwrap(), [1.0, 1.0, 1.0, 2.0]);
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
                let got = scan(&side, &users, user, 512).unwrap();
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
                    bits(&scan(&qs, &qu, user, 512).unwrap()),
                    bits(&scan(&ds, &du, user, 512).unwrap()),
                    "{} user {user}",
                    precision.name()
                );
            }
        }
    }

    /// A candidate list — unsorted, with repeats, empty, or the whole
    /// range — and a row range — empty, one row, crossing the 8-row
    /// tile, or the whole side — score each row with the bits the full
    /// scan gives it, for every head shape at every precision, at band
    /// sizes that split the list and one that does not. The ranges
    /// share one output buffer, as a shard's tile walk does.
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
            let n = n as usize;
            let ranges = [0..0, 9..9, n..n, 0..1, 8..9, n - 1..n, 5..14, 6..19, 0..n];
            let mut tile = Vec::new();
            for user in 0..users.rows() {
                for band in [1, 4, 512] {
                    let full = scan(&side, &users, user, band).unwrap();
                    assert_eq!(full.len(), n);
                    for rows in ranges.clone() {
                        side.score_range(&users, &[user], rows.clone(), band, &mut tile)
                            .unwrap();
                        assert_eq!(
                            bits(&tile),
                            bits(&full[rows.clone()]),
                            "{label}, rows {rows:?}, user {user}, band {band}"
                        );
                    }
                    for (kind, list) in &lists {
                        let got = side.score_rows(&users, user, list, band).unwrap();
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

    /// A range scored for several users at once — groups of four for
    /// the block path, a remainder, repeats, any order — gives each
    /// user the bits of their own full scan, for every head shape at
    /// every precision and over ranges on and off the 8-row block, plus
    /// an f32 dot side wide enough for the 8-lane body.
    #[test]
    fn grouped_users_score_the_bits_of_their_own_scans() {
        let mut sides = every_side();
        let (users, side) = side_of(FrozenModel::synthetic("wide", 5, 37, 21, 7).unwrap());
        sides.push(("wide dot at f32".to_owned(), users, side));
        for (label, users, side) in sides {
            let n = side.items().rows();
            let m = users.rows();
            let full: Vec<Vec<f32>> = (0..m)
                .map(|u| scan(&side, &users, u, 512).unwrap())
                .collect();
            let groups: [Vec<usize>; 5] = [
                vec![],
                vec![3],
                vec![0, 1, 2, 3],
                vec![4, 0, 2, 1, 3],
                vec![1, 1, 4, 0, 2, 3, 0, 4, 2],
            ];
            let mut out = Vec::new();
            for group in &groups {
                for rows in [0..n, 0..8, 3..n, 5..5, 2..19] {
                    side.score_range(&users, group, rows.clone(), 4, &mut out)
                        .unwrap();
                    let len = rows.len();
                    assert_eq!(out.len(), group.len() * len, "{label}");
                    for (i, &user) in group.iter().enumerate() {
                        assert_eq!(
                            bits(&out[i * len..(i + 1) * len]),
                            bits(&full[user][rows.clone()]),
                            "{label}, users {group:?}, rows {rows:?}, user {user}"
                        );
                    }
                }
            }
        }
    }

    /// A row, row range or user outside the side is an error, never a
    /// read past the rows, at every head shape and precision. An
    /// inverted or overlong range fails before anything is scored: the
    /// output buffer keeps what it held.
    #[test]
    fn out_of_range_rows_and_users_are_errors() {
        for (label, users, side) in every_side() {
            let n = side.items().rows() as u32;
            for list in [vec![n], vec![0, 5, n + 7], vec![u32::MAX]] {
                let err = side.score_rows(&users, 0, &list, 512).unwrap_err();
                assert!(err.contains("out of range"), "{label}, {list:?}: {err}");
            }
            let n = n as usize;
            #[allow(clippy::reversed_empty_ranges)]
            let bad = [5..3, 0..n + 1, n + 1..n + 1, n - 1..usize::MAX, 1..0];
            for rows in bad {
                let mut out = vec![7.0f32; 3];
                let err = side
                    .score_range(&users, &[0, 1], rows.clone(), 512, &mut out)
                    .unwrap_err();
                assert!(err.contains("out of range"), "{label}, {rows:?}: {err}");
                assert_eq!(out, [7.0; 3], "{label}, {rows:?} wrote its output");
            }
            let past = users.rows();
            assert!(scan(&side, &users, past, 512).is_err(), "{label}");
            // One bad user in a group fails the call before any scoring.
            let mut out = vec![7.0f32; 3];
            let err = side
                .score_range(&users, &[0, 1, past, 2, 3], 0..n, 512, &mut out)
                .unwrap_err();
            assert!(err.contains("out of range"), "{label}: {err}");
            assert_eq!(out, [7.0; 3], "{label}: a bad user wrote its output");
            assert!(side.score_rows(&users, past, &[0], 512).is_err(), "{label}");
        }
    }
}
