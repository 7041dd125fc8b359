//! Trained bytes pinned across commits.
//!
//! `parallel_training_bit_identical_across_threads` compares thread
//! counts with each other and `twice_trained_checkpoints_are_byte_identical`
//! compares two runs of one build; neither notices a change that moves
//! every run the same way. This test trains fixed configurations on
//! `GeneratorConfig::tiny` and compares an FNV-1a digest of every
//! trained parameter's f32 bits plus the epoch records with constants.
//!
//! The configurations cover every SceneRec variant, every
//! `OptimizerKind` (and `Momentum` through a caller-owned optimizer),
//! batch 1, batches smaller and larger than the worker count, threads 1
//! and ≥ 2, weight decay, gradient clipping, and each of the 7 trainable
//! baselines. A change that is meant to move trained bytes re-records
//! the constants from this test's failure message and says so.

use scenerec_autodiff::optim::Momentum;
use scenerec_baselines::{BprMf, Cmn, Kgat, LightGcn, Ncf, Ngcf, PinSage};
use scenerec_core::trainer::{train, train_with_optimizer, OptimizerKind, TrainConfig};
use scenerec_core::trainer::{EpochRecord, TrainReport};
use scenerec_core::{PairwiseModel, SceneRec, SceneRecConfig, Variant};
use scenerec_data::{generate, Dataset, GeneratorConfig};

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn opt_f32(&mut self, v: Option<f32>) {
        match v {
            Some(x) => {
                self.bytes(&[1]);
                self.f32(x);
            }
            None => self.bytes(&[0]),
        }
    }
}

/// Digest of every parameter (name, shape, f32 bits, in store order)
/// and every epoch record.
fn digest(model: &dyn PairwiseModel, epochs: &[EpochRecord]) -> u64 {
    let mut h = Fnv::new();
    for (_, p) in model.store().iter() {
        h.bytes(p.name().as_bytes());
        let (r, c) = p.value().shape();
        h.u64(r as u64);
        h.u64(c as u64);
        for &v in p.value().as_slice() {
            h.f32(v);
        }
    }
    for e in epochs {
        h.u64(e.epoch as u64);
        h.f32(e.mean_loss);
        h.opt_f32(e.val_ndcg);
        h.opt_f32(e.val_hr);
    }
    h.0
}

fn cfg(optimizer: OptimizerKind, batch_size: usize, threads: usize) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        learning_rate: 0.01,
        lambda: 1e-4,
        optimizer,
        k: 10,
        eval_every: 0,
        patience: 0,
        clip_norm: 5.0,
        batch_size,
        seed: 5,
        threads,
        verbose: false,
    }
}

fn scenerec(data: &Dataset, variant: Variant) -> SceneRec {
    SceneRec::new(
        SceneRecConfig::default()
            .with_dim(8)
            .with_variant(variant)
            .with_seed(3),
        data,
    )
}

fn trained<M: PairwiseModel + Sync>(mut model: M, data: &Dataset, cfg: &TrainConfig) -> u64 {
    let report: TrainReport = train(&mut model, data, cfg);
    digest(&model, &report.epochs)
}

#[test]
fn trained_bytes_match_pinned_digests() {
    let data = generate(&GeneratorConfig::tiny(38)).unwrap();
    let mut got: Vec<(&str, u64)> = Vec::new();

    // SceneRec: each variant, each optimizer, batch 1 and batches on
    // either side of the worker count.
    let mut full = cfg(OptimizerKind::RmsProp, 8, 2);
    full.epochs = 2;
    full.eval_every = 1;
    got.push((
        "scenerec_full_rmsprop_b8_t2",
        trained(scenerec(&data, Variant::Full), &data, &full),
    ));
    got.push((
        "scenerec_noitem_adam_b1_t1",
        trained(
            scenerec(&data, Variant::NoItem),
            &data,
            &cfg(OptimizerKind::Adam, 1, 1),
        ),
    ));
    let mut noscene = cfg(OptimizerKind::Sgd, 5, 3);
    noscene.clip_norm = 0.05;
    got.push((
        "scenerec_noscene_sgd_b5_t3_clip",
        trained(scenerec(&data, Variant::NoScene), &data, &noscene),
    ));
    got.push((
        "scenerec_noatt_rmsprop_b3_t4",
        trained(
            scenerec(&data, Variant::NoAttention),
            &data,
            &cfg(OptimizerKind::RmsProp, 3, 4),
        ),
    ));
    {
        let mut model = scenerec(&data, Variant::Full);
        let mut opt = Momentum::new(0.01, 0.9);
        opt.weight_decay = scenerec_autodiff::optim::WeightDecay(1e-4);
        let report =
            train_with_optimizer(&mut model, &data, &cfg(OptimizerKind::Sgd, 6, 2), &mut opt);
        got.push((
            "scenerec_full_momentum_b6_t2",
            digest(&model, &report.epochs),
        ));
    }

    // The 7 trainable baselines.
    got.push((
        "bprmf_rmsprop_b8_t2",
        trained(
            BprMf::new(&data, 8, 7),
            &data,
            &cfg(OptimizerKind::RmsProp, 8, 2),
        ),
    ));
    got.push((
        "ncf_adam_b1_t1",
        trained(
            Ncf::new(&data, 8, 7),
            &data,
            &cfg(OptimizerKind::Adam, 1, 1),
        ),
    ));
    got.push((
        "cmn_sgd_b6_t2",
        trained(
            Cmn::new(&data, 8, 4, 7),
            &data,
            &cfg(OptimizerKind::Sgd, 6, 2),
        ),
    ));
    got.push((
        "pinsage_rmsprop_b4_t3",
        trained(
            PinSage::new(&data, 8, 4, 3, 7),
            &data,
            &cfg(OptimizerKind::RmsProp, 4, 3),
        ),
    ));
    got.push((
        "ngcf_adam_b8_t2",
        trained(
            Ngcf::new(&data, 8, 2, 3, 7),
            &data,
            &cfg(OptimizerKind::Adam, 8, 2),
        ),
    ));
    got.push((
        "kgat_rmsprop_b8_t2",
        trained(
            Kgat::new(&data, 8, 2, 3, 7),
            &data,
            &cfg(OptimizerKind::RmsProp, 8, 2),
        ),
    ));
    got.push((
        "lightgcn_sgd_b8_t2",
        trained(
            LightGcn::new(&data, 8, 2, 3, 7),
            &data,
            &cfg(OptimizerKind::Sgd, 8, 2),
        ),
    ));

    let pinned: [(&str, u64); 12] = [
        ("scenerec_full_rmsprop_b8_t2", 0xfd05f0f41a9e2873),
        ("scenerec_noitem_adam_b1_t1", 0xd2ab5b971e882b88),
        ("scenerec_noscene_sgd_b5_t3_clip", 0x5df60b37a0b1aa2b),
        ("scenerec_noatt_rmsprop_b3_t4", 0x6f30042d7aea623a),
        ("scenerec_full_momentum_b6_t2", 0xc03d949d94854fb0),
        ("bprmf_rmsprop_b8_t2", 0xbfa12cf40379dabe),
        ("ncf_adam_b1_t1", 0x0ca3f8e084df8f19),
        ("cmn_sgd_b6_t2", 0xedb536b0c0d44013),
        ("pinsage_rmsprop_b4_t3", 0x2a999f5879f80c4f),
        ("ngcf_adam_b8_t2", 0x9ac1bb903005d9a9),
        ("kgat_rmsprop_b8_t2", 0xcd8e7d040a723935),
        ("lightgcn_sgd_b8_t2", 0xe86c53f7a862dc9c),
    ];
    let table: String = got
        .iter()
        .map(|(name, d)| format!("        (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        got.as_slice(),
        pinned.as_slice(),
        "trained bytes moved; the digests of this build are:\n{table}"
    );
}
