//! Exactness of the flat gradient store and the allocation-free backward
//! sweep: the sharded reduce against a serial merge fold and against an
//! independent ordered-map reference, reset/clear semantics, ascending
//! rows, the fused cosine backward against `cosine_grad_wrt_a`, and the
//! rank-1 weight update's zero-row skip.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenerec_autodiff::param::Param;
use scenerec_autodiff::{GradStore, Graph, ParamKind, ParamStore};
use scenerec_tensor::{Initializer, Matrix};
use std::collections::BTreeMap;

/// Two dense parameters and two embedding tables.
fn store() -> ParamStore {
    let mut rng = StdRng::seed_from_u64(0);
    let mut s = ParamStore::new();
    s.add_embedding("users", 12, 3, Initializer::Zeros, &mut rng);
    s.add_dense("w", 2, 3, Initializer::Zeros, &mut rng);
    s.add_embedding("items", 40, 2, Initializer::Zeros, &mut rng);
    s.add_dense("b", 4, 1, Initializer::Zeros, &mut rng);
    s
}

/// One example's contributions: for each parameter, either nothing, a
/// dense matrix, or `(row, values)` row contributions in insertion order
/// (repeats allowed).
#[derive(Debug, Clone)]
enum Contribution {
    None,
    Dense(Vec<f32>),
    Rows(Vec<(u32, Vec<f32>)>),
}

/// Samples a number of examples in the range, each over `store()`'s
/// parameters: random dense presence, random row sets, and values that
/// include both signed zeros, tiny and large magnitudes.
struct Examples(std::ops::Range<usize>);

impl Strategy for Examples {
    type Value = Vec<Vec<Contribution>>;

    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        let s = store();
        let n = rng.gen_range(self.0.clone());
        (0..n)
            .map(|_| s.iter().map(|(_, p)| contribution(p, rng)).collect())
            .collect()
    }
}

fn value(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..6) {
        0 => 0.0,
        1 => -0.0,
        2 => 1e-30,
        3 => 3.0e7,
        _ => rng.gen_range(-4.0f32..4.0),
    }
}

fn values(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| value(rng)).collect()
}

fn contribution(p: &Param, rng: &mut StdRng) -> Contribution {
    let (rows, cols) = p.value().shape();
    match p.kind() {
        ParamKind::Dense if rng.gen_bool(0.3) => Contribution::None,
        ParamKind::Dense => Contribution::Dense(values(rng, rows * cols)),
        ParamKind::Embedding => {
            let n = rng.gen_range(0..8);
            Contribution::Rows(
                (0..n)
                    .map(|_| (rng.gen_range(0..rows as u32), values(rng, cols)))
                    .collect(),
            )
        }
    }
}

fn fill(g: &mut GradStore, store: &ParamStore, contributions: &[Contribution]) {
    for ((id, p), c) in store.iter().zip(contributions) {
        match c {
            Contribution::None => {}
            Contribution::Dense(v) => {
                let (r, cols) = p.value().shape();
                g.add_dense(id, &Matrix::from_vec(r, cols, v.clone()).unwrap());
            }
            Contribution::Rows(rows) => {
                for (r, v) in rows {
                    g.add_row(id, *r, v);
                }
            }
        }
    }
}

/// Every gradient as bits, per parameter: the dense slot (`None` when
/// absent) and the rows in iteration order.
type Bits = Vec<(Option<Vec<u32>>, Vec<(u32, Vec<u32>)>)>;

fn bits(g: &GradStore, store: &ParamStore) -> Bits {
    let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    store
        .iter()
        .map(|(id, _)| {
            (
                g.dense(id).map(|m| to_bits(m.as_slice())),
                g.sparse(id).iter().map(|(r, v)| (r, to_bits(v))).collect(),
            )
        })
        .collect()
}

/// The ordered-map reference: per-example maps built by zero-then-add,
/// merged example by example (a fresh dense slot copies, a fresh row
/// starts at zero).
fn reference(store: &ParamStore, examples: &[Vec<Contribution>]) -> Bits {
    let mut dense: Vec<Option<Vec<f32>>> = vec![None; store.len()];
    let mut rows: Vec<BTreeMap<u32, Vec<f32>>> = vec![BTreeMap::new(); store.len()];
    for ex in examples {
        for (k, c) in ex.iter().enumerate() {
            match c {
                Contribution::None => {}
                Contribution::Dense(v) => {
                    let own: Vec<f32> = v.iter().map(|x| 0.0 + 1.0 * x).collect();
                    match &mut dense[k] {
                        Some(acc) => acc.iter_mut().zip(&own).for_each(|(a, x)| *a += 1.0 * x),
                        slot => *slot = Some(own),
                    }
                }
                Contribution::Rows(list) => {
                    let mut own: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
                    for (r, v) in list {
                        let e = own.entry(*r).or_insert_with(|| vec![0.0; v.len()]);
                        e.iter_mut().zip(v).for_each(|(a, x)| *a += 1.0 * x);
                    }
                    for (r, v) in own {
                        let e = rows[k].entry(r).or_insert_with(|| vec![0.0; v.len()]);
                        e.iter_mut().zip(&v).for_each(|(a, x)| *a += 1.0 * x);
                    }
                }
            }
        }
    }
    let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    dense
        .iter()
        .zip(&rows)
        .map(|(d, r)| {
            (
                d.as_deref().map(to_bits),
                r.iter().map(|(&k, v)| (k, to_bits(v))).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A sharded reduce equals the serial `merge` fold, and both equal the
    /// ordered-map reference, bit for bit at 1–4 shares.
    #[test]
    fn sharded_reduce_equals_serial_merge_fold(
        examples in Examples(0..7),
        shares in 1usize..5,
    ) {
        let s = store();
        // Per-example stores are reset and refilled, as the trainer's pool is.
        let mut pool: Vec<GradStore> = examples.iter().map(|_| GradStore::new(&s)).collect();
        for (g, ex) in pool.iter_mut().zip(examples.iter().rev()) {
            fill(g, &s, ex);
        }
        for (g, ex) in pool.iter_mut().zip(&examples) {
            g.reset();
            fill(g, &s, ex);
        }
        let mut folded = GradStore::new(&s);
        for g in &pool {
            folded.merge(g);
        }
        let mut sharded = GradStore::new(&s);
        sharded.reduce(&pool, shares);
        prop_assert_eq!(bits(&sharded, &s), bits(&folded, &s));
        prop_assert_eq!(bits(&sharded, &s), reference(&s, &examples));
    }

    /// A cleared accumulator keeps every dense slot it ever held at zero,
    /// then sums the next batch exactly as a fresh fold over that batch
    /// plus those zeros.
    #[test]
    fn reduce_into_cleared_accumulator_matches_fold(
        first in Examples(1..4),
        second in Examples(1..4),
        shares in 1usize..5,
    ) {
        let s = store();
        let build = |exs: &[Vec<Contribution>]| -> Vec<GradStore> {
            exs.iter()
                .map(|ex| {
                    let mut g = GradStore::new(&s);
                    fill(&mut g, &s, ex);
                    g
                })
                .collect()
        };
        let (a, b) = (build(&first), build(&second));
        let mut sharded = GradStore::new(&s);
        sharded.reduce(&a, shares);
        sharded.clear();
        sharded.reduce(&b, shares);
        let mut folded = GradStore::new(&s);
        for g in &a {
            folded.merge(g);
        }
        folded.clear();
        for g in &b {
            folded.merge(g);
        }
        prop_assert_eq!(bits(&sharded, &s), bits(&folded, &s));
    }

    /// Rows iterate in ascending order whatever the insertion order, both
    /// through `add_row` and through a backward sweep.
    #[test]
    fn rows_iterate_ascending(order in prop::collection::vec(0u32..40, 1..30)) {
        let s = store();
        let items = s.lookup("items").unwrap();
        let mut g = GradStore::new(&s);
        for &r in &order {
            g.add_row(items, r, &[1.0, -1.0]);
        }
        let keys: Vec<u32> = g.sparse(items).keys().copied().collect();
        let mut want = order.clone();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(&keys, &want);

        let mut tape = Graph::new(&s);
        let sum = tape.embed_sum(items, &order);
        let loss = tape.sum(sum);
        let mut swept = GradStore::new(&s);
        tape.backward(loss, &mut swept);
        let swept_keys: Vec<u32> = swept.sparse(items).keys().copied().collect();
        prop_assert_eq!(swept_keys, want);
    }
}

/// Two vectors for the cosine check: random entries with exact zeros,
/// and now and then an all-zero operand.
struct CosinePair;

impl Strategy for CosinePair {
    type Value = (Vec<f32>, Vec<f32>, f32);

    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        let n = rng.gen_range(1..40);
        let side = |rng: &mut StdRng| -> Vec<f32> {
            if rng.gen_bool(0.1) {
                return vec![0.0; n];
            }
            (0..n)
                .map(|_| match rng.gen_range(0..5) {
                    0 => 0.0,
                    _ => rng.gen_range(-3.0f32..3.0),
                })
                .collect()
        };
        let (a, b) = (side(rng), side(rng));
        (a, b, rng.gen_range(-2.0f32..2.0))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sweep's cosine backward, which computes the norms and the dot
    /// product once for both operands, equals `cosine_grad_wrt_a` for
    /// each operand, scaled by the upstream gradient, bit for bit.
    #[test]
    fn cosine_backward_matches_reference_bit_for_bit(pair in CosinePair) {
        let (a, b, up) = pair;
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        let e = s.add_embedding("e", 2, a.len(), Initializer::Zeros, &mut rng);
        s.param_mut(e).value_mut().set_row(0, &a);
        s.param_mut(e).value_mut().set_row(1, &b);
        let mut g = Graph::new(&s);
        let (va, vb) = (g.embed_row(e, 0), g.embed_row(e, 1));
        let cos = g.cosine(va, vb);
        let loss = g.scale(cos, up);
        let mut grads = GradStore::new(&s);
        g.backward(loss, &mut grads);
        let gs = up * 1.0;
        let expect = |x: &[f32], y: &[f32]| -> Vec<u32> {
            scenerec_tensor::numeric::cosine_grad_wrt_a(x, y)
                .iter()
                .map(|v| (0.0 + v * gs).to_bits())
                .collect()
        };
        let got = |row: u32| -> Vec<u32> {
            grads.sparse(e).get(row).unwrap().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(got(0), expect(&a, &b));
        prop_assert_eq!(got(1), expect(&b, &a));
    }
}

#[test]
fn reset_reads_fresh_and_clear_keeps_dense_slots_at_zero() {
    let s = store();
    let (users, w) = (s.lookup("users").unwrap(), s.lookup("w").unwrap());
    let touch = |g: &mut GradStore| {
        g.add_dense(w, &Matrix::full(2, 3, 1.5));
        g.add_row(users, 7, &[1.0, 2.0, 3.0]);
        g.add_row(users, 2, &[1.0, 2.0, 3.0]);
    };

    let mut per_example = GradStore::new(&s);
    touch(&mut per_example);
    per_example.reset();
    assert!(per_example.dense(w).is_none(), "reset drops dense presence");
    assert!(per_example.sparse(users).is_empty(), "reset drops rows");
    assert_eq!(per_example.sparse(users).get(7), None);
    // Refilled, it reads as a fresh store would.
    touch(&mut per_example);
    let mut fresh = GradStore::new(&s);
    touch(&mut fresh);
    assert_eq!(bits(&per_example, &s), bits(&fresh, &s));

    let mut acc = GradStore::new(&s);
    acc.merge(&fresh);
    acc.clear();
    let zero = acc.dense(w).expect("a touched dense slot stays present");
    assert!(zero.as_slice().iter().all(|v| v.to_bits() == 0));
    assert!(acc.sparse(users).is_empty());
    assert_eq!(acc.global_norm(), 0.0);
}

/// An affine node whose input holds an infinity and whose upstream
/// gradient has a zero row: that row of `∂W` stays zero, as the skipped
/// row of an outer product leaves it. An unskipped `0 · ∞` is NaN.
#[test]
fn affine_weight_grad_skips_zero_upstream_rows() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut s = ParamStore::new();
    let w = s.add_dense("w", 2, 2, Initializer::Constant(0.5), &mut rng);
    let b = s.add_dense("b", 2, 1, Initializer::Zeros, &mut rng);
    let mut g = Graph::new(&s);
    let x = g.constant_vec(&[f32::INFINITY, 1.0]);
    let y = g.affine(w, b, x);
    let pick = g.constant_vec(&[0.0, 1.0]);
    let loss = g.dot(y, pick);
    let mut grads = GradStore::new(&s);
    g.backward(loss, &mut grads);
    let gw = grads.dense(w).unwrap();
    assert_eq!(gw.row(0), &[0.0, 0.0], "zero upstream row stays zero");
    assert_eq!(gw.row(1), &[f32::INFINITY, 1.0]);
    assert_eq!(grads.dense(b).unwrap().as_slice(), &[0.0, 1.0]);
}
